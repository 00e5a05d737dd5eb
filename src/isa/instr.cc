#include "isa/instr.hh"

#include "isa/instr_pool.hh"

namespace smtavf
{

const char *
opClassName(OpClass op)
{
    switch (op) {
      case OpClass::Nop: return "nop";
      case OpClass::IntAlu: return "ialu";
      case OpClass::IntMult: return "imul";
      case OpClass::IntDiv: return "idiv";
      case OpClass::FpAlu: return "falu";
      case OpClass::FpMult: return "fmul";
      case OpClass::FpDiv: return "fdiv";
      case OpClass::Load: return "load";
      case OpClass::Store: return "store";
      case OpClass::BranchCond: return "bcond";
      case OpClass::BranchUncond: return "jump";
      case OpClass::Call: return "call";
      case OpClass::Return: return "ret";
      default: return "?";
    }
}

bool
isControl(OpClass op)
{
    switch (op) {
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::Call:
      case OpClass::Return:
        return true;
      default:
        return false;
    }
}

bool
isMemRef(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

bool
isFloat(OpClass op)
{
    switch (op) {
      case OpClass::FpAlu:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return true;
      default:
        return false;
    }
}

const char *
hwStructName(HwStruct s)
{
    switch (s) {
      case HwStruct::IQ: return "IQ";
      case HwStruct::RegFile: return "Reg";
      case HwStruct::FU: return "FU";
      case HwStruct::ROB: return "ROB";
      case HwStruct::LsqData: return "LSQ_data";
      case HwStruct::LsqTag: return "LSQ_tag";
      case HwStruct::Dl1Data: return "DL1_data";
      case HwStruct::Dl1Tag: return "DL1_tag";
      case HwStruct::Dtlb: return "DTLB";
      case HwStruct::Itlb: return "ITLB";
      case HwStruct::L2Data: return "L2_data";
      case HwStruct::L2Tag: return "L2_tag";
      default: return "?";
    }
}

void
releaseInstr(DynInstr *in) noexcept
{
    in->ref.pool->destroy(in);
}

} // namespace smtavf
