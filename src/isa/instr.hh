/**
 * @file
 * The synthetic RISC ISA: operation classes, register-name helpers and the
 * dynamic instruction record (DynInstr) that flows through the pipeline.
 *
 * The workload generator emits DynInstr records with genuine register
 * dataflow, memory addresses and branch outcomes; the core model adds
 * renaming, timing and AVF bookkeeping in place.
 */

#ifndef SMTAVF_ISA_INSTR_HH
#define SMTAVF_ISA_INSTR_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "avf/structures.hh"
#include "base/small_vec.hh"
#include "base/types.hh"

namespace smtavf
{

/** Operation classes of the synthetic ISA. */
enum class OpClass : std::uint8_t
{
    Nop,
    IntAlu,
    IntMult,
    IntDiv,
    FpAlu,
    FpMult,
    FpDiv,
    Load,
    Store,
    BranchCond,
    BranchUncond,
    Call,
    Return,
    NumOpClasses
};

/** Number of operation classes. */
constexpr std::size_t numOpClasses =
    static_cast<std::size_t>(OpClass::NumOpClasses);

/** Human-readable mnemonic for an operation class. */
const char *opClassName(OpClass op);

/** True for conditional and unconditional control transfers. */
bool isControl(OpClass op);

/** True for loads and stores. */
bool isMemRef(OpClass op);

/** True for operations executed on floating-point units. */
bool isFloat(OpClass op);

/**
 * Architectural register namespace: indices [0, 32) are the integer file,
 * [32, 64) the floating-point file. Register 0 of each file is a
 * hardwired zero/constant register (writes to it are discarded, making it
 * a natural sink for dead results).
 */
constexpr RegIndex numArchIntRegs = 32;
constexpr RegIndex numArchFpRegs = 32;
constexpr RegIndex numArchRegs = numArchIntRegs + numArchFpRegs;

/** True if the architectural index names a floating-point register. */
inline bool
isFpReg(RegIndex arch_reg)
{
    return arch_reg >= numArchIntRegs;
}

/** True if the architectural index is a hardwired zero register. */
inline bool
isZeroReg(RegIndex arch_reg)
{
    return arch_reg == 0 || arch_reg == numArchIntRegs;
}

/**
 * One closed residency interval of this instruction's bits in a hardware
 * structure, awaiting final ACE/un-ACE classification (deferred until the
 * producing instruction's dynamic deadness is known).
 */
struct PendingInterval
{
    HwStruct structure;
    std::uint32_t bitCount;
    Cycle start;
    Cycle end;
};

struct DynInstr;
class InstrPool;

/**
 * Owning handle to an in-flight dynamic instruction: an intrusive,
 * non-atomic reference count kept in the DynInstr itself
 * (DynInstr::ref), with storage from the owning core's InstrPool. The
 * last handle to drop returns the record to its pool.
 *
 * The owners are the ROB, the LSQ, the front queue, the dead-code
 * analyzer, the completion wheel and a run's CommitTrace. Structures
 * that only ever see instructions one of those owners holds (the issue
 * queue's slot table, ready list and wait lists) keep raw DynInstr
 * pointers instead. The count is not atomic: a simulator, and every
 * instruction in it, is used by one thread at a time.
 */
class InstPtr
{
  public:
    InstPtr() noexcept = default;
    InstPtr(std::nullptr_t) noexcept {}

    /** Take a new reference to @p in (null allowed). */
    explicit InstPtr(DynInstr *in) noexcept;

    InstPtr(const InstPtr &o) noexcept : InstPtr(o.p_) {}
    InstPtr(InstPtr &&o) noexcept : p_(std::exchange(o.p_, nullptr)) {}

    InstPtr &
    operator=(InstPtr o) noexcept
    {
        std::swap(p_, o.p_);
        return *this;
    }

    ~InstPtr();

    DynInstr *get() const noexcept { return p_; }
    DynInstr *operator->() const noexcept { return p_; }
    DynInstr &operator*() const noexcept { return *p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

    friend bool
    operator==(const InstPtr &a, const InstPtr &b) noexcept
    {
        return a.p_ == b.p_;
    }
    friend bool
    operator==(const InstPtr &a, std::nullptr_t) noexcept
    {
        return a.p_ == nullptr;
    }

  private:
    DynInstr *p_ = nullptr;
};

/**
 * Intrusive reference-count header of a DynInstr. Copying an instruction
 * record (e.g. from the generator's template) never copies ownership:
 * the copy starts unowned and poolless, and InstrPool::create fills both.
 */
struct InstrRef
{
    std::uint32_t count = 0;
    InstrPool *pool = nullptr;

    InstrRef() = default;
    InstrRef(const InstrRef &) noexcept {}
    InstrRef &operator=(const InstrRef &) noexcept { return *this; }
};

/** Return a DynInstr whose last handle dropped to its pool (instr.cc). */
void releaseInstr(DynInstr *in) noexcept;

/**
 * A dynamic instruction. Plain aggregate by design: it is the working
 * record of the whole pipeline and every stage annotates it in place.
 */
struct DynInstr
{
    // --- identity -------------------------------------------------------
    ThreadId tid = invalidThread;
    /** Per-thread fetch order; monotonic across wrong-path fetches too. */
    SeqNum seq = 0;
    /** Global dispatch order (age for issue selection across threads). */
    SeqNum globalSeq = 0;
    /** Index in the correct-path stream; meaningless when wrongPath. */
    std::uint64_t streamIdx = 0;
    Addr pc = 0;
    OpClass op = OpClass::Nop;

    // --- architectural operands -----------------------------------------
    RegIndex destReg = invalidReg;
    RegIndex srcReg1 = invalidReg;
    RegIndex srcReg2 = invalidReg;

    // --- memory behaviour -------------------------------------------------
    Addr memAddr = 0;
    std::uint8_t memSize = 0;

    // --- control behaviour ------------------------------------------------
    bool branchTaken = false;     ///< actual outcome
    Addr branchTarget = 0;        ///< actual target
    bool predTaken = false;       ///< predictor's direction guess
    bool mispredicted = false;    ///< set at fetch when prediction != actual
    std::uint32_t predHistory = 0; ///< gshare history the guess was made under
    std::uint32_t rasTop = 0;      ///< RAS checkpoint for squash recovery
    std::uint32_t rasDepth = 0;    ///< RAS checkpoint for squash recovery

    // --- classification flags ---------------------------------------------
    bool wrongPath = false;       ///< fetched past a mispredicted branch
    bool squashed = false;        ///< removed before commit
    bool destDead = false;        ///< result overwritten before any read

    // --- rename state -------------------------------------------------------
    RegIndex destPhys = invalidReg;
    RegIndex oldDestPhys = invalidReg;
    RegIndex srcPhys1 = invalidReg;
    RegIndex srcPhys2 = invalidReg;

    // --- pipeline state -----------------------------------------------------
    bool inIq = false;
    /** Issue-queue slot while inIq (core/iq.hh). */
    std::uint16_t iqSlot = 0;
    bool issued = false;
    bool completed = false;
    Cycle fetchCycle = 0;
    Cycle dispatchCycle = 0;
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;

    /** DL1 outcome of this memory access (set at execute). */
    bool dl1Miss = false;
    /** L2 outcome of this memory access (set at execute). */
    bool l2Miss = false;

    /**
     * Residency intervals awaiting dead-code resolution. An instruction
     * accrues at most five intervals (IQ and FU at issue; ROB, LSQ tag and
     * LSQ data at commit or squash), so the inline capacity of six keeps
     * the list inside the record and off the heap.
     */
    SmallVec<PendingInterval, 6> pending;

    /**
     * Intrusive FIFO link of the core's completion wheel: the next
     * instruction scheduled to finish in the same cycle. Owned by the
     * scheduling core; always null outside a scheduled window (the wheel
     * clears it as it drains).
     */
    InstPtr completionNext;

    /** Handle bookkeeping (see InstPtr); never copied. */
    InstrRef ref;

    /** True for instructions that write a non-zero architectural register. */
    bool
    writesReg() const
    {
        return destReg != invalidReg && !isZeroReg(destReg);
    }

    /** True if this is a conditional or unconditional control transfer. */
    bool isBranch() const { return isControl(op); }

    /** True if this is a load or store. */
    bool isMem() const { return isMemRef(op); }

    /** True if this instruction never contributes ACE bits. */
    bool
    neverAce() const
    {
        return wrongPath || squashed || op == OpClass::Nop;
    }
};

inline InstPtr::InstPtr(DynInstr *in) noexcept : p_(in)
{
    if (p_)
        ++p_->ref.count;
}

inline InstPtr::~InstPtr()
{
    if (p_ && --p_->ref.count == 0)
        releaseInstr(p_);
}

} // namespace smtavf

#endif // SMTAVF_ISA_INSTR_HH
