/**
 * @file
 * First-level dynamic dead-code analysis with deferred classification.
 *
 * An instruction is first-level dynamically dead (FDD) when its destination
 * register is overwritten before any later instruction reads it: a soft
 * error in any of its pipeline residency is architecturally masked, so its
 * bits are un-ACE everywhere (Mukherjee et al.). Deadness is only knowable
 * at the *next writer's* commit, so committed producers park here until
 * resolution. The core only stamps each instruction's residency (dispatch,
 * issue, FU-latch end, and when and how it left the pipeline); resolution
 * derives the per-structure intervals from those stamps, classifies them
 * and forwards the bit-cycles to the ledger, once.
 *
 * Committed readers, not speculative ones, decide liveness: a consumer
 * that was squashed never architecturally read the value.
 */

#ifndef SMTAVF_AVF_DEAD_CODE_HH
#define SMTAVF_AVF_DEAD_CODE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "avf/ledger.hh"
#include "base/arena.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Tracks pending producers per (thread, architectural register). */
class DeadCodeAnalyzer
{
  public:
    /**
     * @param num_threads hardware contexts
     * @param ledger      destination of resolved intervals
     * @param enabled     when false, every committed instruction resolves
     *                    live immediately (the "no dead-code analysis"
     *                    ablation of DESIGN.md)
     */
    DeadCodeAnalyzer(unsigned num_threads, AvfLedger &ledger, bool enabled);

    /**
     * Process one committing instruction: its register reads make pending
     * producers live; its register write (if any) resolves — and reports —
     * the previous unread producer of the same register as dead, then
     * parks this instruction as the new pending producer.
     *
     * @return true if this commit exposed a dead previous producer of the
     *         destination register (callers use this to classify the
     *         freed physical register's value interval).
     */
    bool onCommit(const InstPtr &in);

    /**
     * Resolve and forward the intervals of a squashed or wrong-path
     * instruction (always un-ACE; no deadness involved).
     */
    void onSquash(const InstPtr &in);

    /**
     * Resolve a still-in-flight instruction at end of run (conservatively
     * live; wrong-path instructions stay un-ACE via neverAce()).
     */
    void resolveLive(const InstPtr &in);

    /** End of run: every still-pending producer is conservatively live. */
    void finish();

    std::uint64_t deadInstructions() const { return deadCount_; }
    std::uint64_t resolvedInstructions() const { return resolvedCount_; }

    /** Worker-reuse hook: no pending producers, counters zeroed. */
    void
    reset()
    {
        pending_.assign(pending_.size(), {});
        deadCount_ = 0;
        resolvedCount_ = 0;
    }

    /** Fraction of resolved register-writing instructions found dead. */
    double
    deadFraction() const
    {
        return resolvedCount_
                   ? static_cast<double>(deadCount_) / resolvedCount_
                   : 0.0;
    }

    /**
     * Checkpoint hook: counters only. Checkpoints are captured at a
     * boundary where finish() has just resolved every pending producer
     * (conservatively live — the same rule the end of a run applies), so
     * the pending_ table is empty by construction and no instruction
     * objects ever need to travel.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(deadCount_);
        ar(resolvedCount_);
    }

  private:
    void resolve(DynInstr &in, bool dead);

    /**
     * Book @p in's residency intervals, derived from its stamps, as
     * @p ace; a no-op unless its residency is closed and not yet booked:
     *  - IQ: [dispatch, issued ? issue : end];
     *  - FU latch: [issue, fuEnd], if it issued to a unit;
     *  - ROB and LSQ tag: [dispatch, end];
     *  - LSQ data: from the value's arrival (committed: load complete or
     *    store issue; otherwise dispatch) to end.
     */
    void bookResidency(DynInstr &in, bool ace);

    AvfLedger &ledger_;
    bool enabled_;
    // pending unread producer per (thread, architectural register)
    AVec<std::array<InstPtr, numArchRegs>> pending_;
    std::uint64_t deadCount_ = 0;
    std::uint64_t resolvedCount_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_AVF_DEAD_CODE_HH
