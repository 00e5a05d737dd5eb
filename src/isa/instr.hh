/**
 * @file
 * The synthetic RISC ISA: operation classes, register-name helpers and the
 * dynamic instruction record (DynInstr) that flows through the pipeline.
 *
 * The workload generator emits InstrTemplate records with genuine register
 * dataflow, memory addresses and branch outcomes; the core copies each
 * into a DynInstr and adds renaming, timing and residency stamps in place.
 */

#ifndef SMTAVF_ISA_INSTR_HH
#define SMTAVF_ISA_INSTR_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "avf/structures.hh"
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
 * The part of an instruction the workload generator decides: the fields
 * StreamGenerator::generateOne()/makeWrongPath() fill in. The generator
 * buffers these compact records (its checkpoint carries the same fields
 * minus wrongPath, which buffered correct-path records never set), and
 * InstrPool::create() turns one into a full DynInstr at fetch.
 */
struct InstrTemplate
{
    /** Index in the correct-path stream; meaningless when wrongPath. */
    std::uint64_t streamIdx = 0;
    Addr pc = 0;
    Addr memAddr = 0;
    Addr branchTarget = 0; ///< actual target

    // --- architectural operands -----------------------------------------
    RegIndex destReg = invalidReg;
    RegIndex srcReg1 = invalidReg;
    RegIndex srcReg2 = invalidReg;

    ThreadId tid = invalidThread;
    OpClass op = OpClass::Nop;
    std::uint8_t memSize = 0;
    bool branchTaken = false; ///< actual outcome
    bool wrongPath = false;   ///< fetched past a mispredicted branch

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
};

static_assert(sizeof(InstrTemplate) <= 64,
              "the generator buffers InstrTemplate by the thousand; keep it "
              "within one cache line");

/**
 * How an instruction's pipeline residency ended. The core stamps it
 * together with DynInstr::endCycle; DeadCodeAnalyzer derives the
 * instruction's per-structure residency intervals from these stamps.
 */
enum class Residency : std::uint8_t
{
    Open,      ///< not yet dispatched, or still in flight
    Committed, ///< retired at endCycle
    Cut,       ///< squashed, or still in flight at end of run, at endCycle
    Booked,    ///< intervals already forwarded to the ledger
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
 * record never copies ownership: the copy starts unowned and poolless,
 * and InstrPool::create fills both.
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
 * A dynamic instruction: the generator's template plus everything the
 * pipeline annotates in place. A plain record by design: it is the
 * working record of the whole pipeline.
 */
struct DynInstr : InstrTemplate
{
    DynInstr() = default;

    /** A fresh record for template @p t: every pipeline field default. */
    DynInstr(const InstrTemplate &t) : InstrTemplate(t) {}

    // --- identity -------------------------------------------------------
    /** Per-thread fetch order; monotonic across wrong-path fetches too. */
    SeqNum seq = 0;
    /** Global dispatch order (age for issue selection across threads). */
    SeqNum globalSeq = 0;

    // --- control behaviour ------------------------------------------------
    std::uint32_t predHistory = 0; ///< gshare history the guess was made under
    std::uint32_t rasTop = 0;      ///< RAS checkpoint for squash recovery
    std::uint32_t rasDepth = 0;    ///< RAS checkpoint for squash recovery
    bool predTaken = false;       ///< predictor's direction guess
    bool mispredicted = false;    ///< set at fetch when prediction != actual

    // --- classification flags ---------------------------------------------
    bool squashed = false;        ///< removed before commit
    bool destDead = false;        ///< result overwritten before any read

    // --- rename state -------------------------------------------------------
    RegIndex destPhys = invalidReg;
    RegIndex oldDestPhys = invalidReg;
    RegIndex srcPhys1 = invalidReg;
    RegIndex srcPhys2 = invalidReg;

    // --- pipeline state -----------------------------------------------------
    /** Issue-queue slot while inIq (core/iq.hh). */
    std::uint16_t iqSlot = 0;
    bool inIq = false;
    bool issued = false;
    bool completed = false;
    /** DL1 outcome of this memory access (set at execute). */
    bool dl1Miss = false;
    /** L2 outcome of this memory access (set at execute). */
    bool l2Miss = false;
    /** How residency ended; set with endCycle (see Residency). */
    Residency residency = Residency::Open;
    Cycle fetchCycle = 0;
    Cycle dispatchCycle = 0;
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;

    // --- residency stamps (AVF) ---------------------------------------------
    /** Cycle residency ended: commit, squash or end of run. */
    Cycle endCycle = 0;
    /** End of the FU-latch occupancy; 0 unless it issued to a unit. */
    Cycle fuEnd = 0;

    /**
     * Intrusive FIFO link of the core's completion wheel: the next
     * instruction scheduled to finish in the same cycle. Owned by the
     * scheduling core; always null outside a scheduled window (the wheel
     * clears it as it drains).
     */
    InstPtr completionNext;

    /** Handle bookkeeping (see InstPtr); never copied. */
    InstrRef ref;

    /** True if this instruction never contributes ACE bits. */
    bool
    neverAce() const
    {
        return wrongPath || squashed || op == OpClass::Nop;
    }

    /** Stamp the end of this instruction's pipeline residency. */
    void
    closeResidency(Residency how, Cycle at)
    {
        residency = how;
        endCycle = at;
    }
};

static_assert(sizeof(DynInstr) <= 184,
              "DynInstr is copied at every fetch and recycled millions of "
              "times per run; growing it costs simulation speed");

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
