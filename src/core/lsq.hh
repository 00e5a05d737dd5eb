/**
 * @file
 * Per-thread load/store queue (Table 1: 48 entries per thread). Provides
 * conservative memory disambiguation (a load may issue only once every
 * older store of its thread has executed its address/data) and
 * store-to-load forwarding.
 *
 * The queue caches its oldest unissued store, updated on the three events
 * that can change it (a store is pushed, issues, or is squashed), so the
 * disambiguation test the issue stage asks every cycle is one compare
 * instead of a walk over the queue.
 */

#ifndef SMTAVF_CORE_LSQ_HH
#define SMTAVF_CORE_LSQ_HH

#include "base/ring_buffer.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** One thread's combined load/store queue. */
class Lsq
{
  public:
    explicit Lsq(std::uint32_t capacity);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    /** Append at dispatch (program order). */
    void push(const InstPtr &in);

    /** Remove the committing instruction (must be the oldest). */
    void popCommitted(const InstPtr &in);

    /** Remove squashed entries with seq > @p seq. */
    void squashAfter(SeqNum seq);

    /**
     * Issue a store: set its issued flag and advance the cached oldest
     * unissued store past it. Stores issue only through here, so the
     * cache never goes stale.
     */
    void markIssued(DynInstr &store);

    /**
     * Disambiguation test: true when every store older than the load
     * with per-thread order @p load_seq has issued (addresses and data
     * known). O(1): it compares against the cached oldest unissued
     * store, so a blocked load costs the issue stage one compare.
     */
    bool
    loadMayIssue(SeqNum load_seq) const
    {
        return oldestUnissuedStore_ >= load_seq;
    }

    /**
     * Forwarding test: true when the youngest older store overlapping the
     * load's bytes can supply the data directly (no cache access needed).
     */
    bool
    canForward(const DynInstr &load) const
    {
        bool forward = false;
        for (const auto &e : entries_) {
            if (e->seq >= load.seq)
                break;
            if (e->op == OpClass::Store && e->issued && overlaps(*e, load))
                forward = true; // youngest older overlapping store wins
        }
        return forward;
    }

    /**
     * Seq of the oldest store not yet issued; noStore when none is
     * pending (invariant checker).
     */
    SeqNum oldestUnissuedStore() const { return oldestUnissuedStore_; }

    /** The oldestUnissuedStore() value recomputed by a scan. */
    SeqNum scanOldestUnissuedStore() const;

    static constexpr SeqNum noStore = ~SeqNum{0};

    /**
     * Fault injection for the invariant-checker tests ONLY: overwrite the
     * cached oldest unissued store. Never call outside tests.
     */
    void debugCorruptOldestStore(SeqNum seq) { oldestUnissuedStore_ = seq; }

    /** Iterate oldest to youngest (invariant checker, diagnostics). */
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

    /** Worker-reuse hook: empty the ring, capacity retained. */
    void
    reset()
    {
        entries_.reset();
        oldestUnissuedStore_ = noStore;
    }

  private:
    static bool
    overlaps(const DynInstr &a, const DynInstr &b)
    {
        Addr a_end = a.memAddr + a.memSize;
        Addr b_end = b.memAddr + b.memSize;
        return a.memAddr < b_end && b.memAddr < a_end;
    }

    std::uint32_t capacity_;
    /** Ring sized to capacity up front: no allocation after construction. */
    RingBuffer<InstPtr> entries_;
    SeqNum oldestUnissuedStore_ = noStore;
};

} // namespace smtavf

#endif // SMTAVF_CORE_LSQ_HH
