/**
 * @file
 * The shared issue/instruction queue (Table 1: 96 entries shared by all
 * contexts). Instructions wait here from dispatch until their operands are
 * ready and a function unit is available; oldest-first (global dispatch
 * order) selection.
 *
 * Its AVF is the paper's headline hotspot: multithreading keeps the queue
 * full of ACE bits waiting on operands, and memory-bound threads stretch
 * that residency across L2-miss latencies.
 *
 * Event-driven wakeup: nothing here is re-polled per cycle. An entry
 * whose needed sources are not yet written sits on the wait list of each
 * such physical register; the producer's writeback (wakeup()) drains that
 * list, and an entry with no source left to wait for joins the age-sorted
 * ready list. The select stage walks only the ready list, oldest first:
 * exactly the operand-ready entries, in dispatch order.
 */

#ifndef SMTAVF_CORE_IQ_HH
#define SMTAVF_CORE_IQ_HH

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "base/arena.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Shared issue queue ordered by global dispatch age. */
class IssueQueue
{
  public:
    /**
     * A ready entry: the few fields the select stage tests before it has
     * to touch the instruction itself (a load blocked behind an older
     * store is skipped on tid/seq alone).
     */
    struct ReadyEntry
    {
        SeqNum globalSeq; ///< age key (ready list is sorted on it)
        SeqNum seq;       ///< per-thread order, for LSQ disambiguation
        DynInstr *in;
        ThreadId tid;
        OpClass op;
    };

    /** A select-stage verdict on one ready entry. */
    enum class Pick
    {
        Skip,  ///< stays ready for a later cycle
        Issue, ///< issued: leaves the queue
        Stop,  ///< issue width exhausted: end the scan
    };

    /**
     * @param capacity       entries (slots)
     * @param num_phys_regs  physical registers (int + fp) entries may
     *                       wait on
     */
    IssueQueue(std::uint32_t capacity, std::uint32_t num_phys_regs);

    bool full() const { return size_ >= capacity_; }
    std::size_t size() const { return size_; }
    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t freeSlots() const { return capacity_ - size_; }

    /**
     * Insert at the tail (callers dispatch in global age order). The
     * queue does not own @p in: the ROB keeps it alive until it leaves.
     * @p src1_ready / @p src2_ready say whether each source is already
     * written. A store issues on its address (src1) alone, so it never
     * waits on its data source.
     */
    void insert(const InstPtr &in, bool src1_ready, bool src2_ready);

    /** Remove a (squashed) entry, wherever it waits. O(1) but for the
     *  ready-list erase. */
    void remove(const InstPtr &in);

    /** Writeback of @p phys: wake every entry waiting on it. */
    void wakeup(RegIndex phys);

    /**
     * The select stage: call @p pick on each ready entry, oldest first,
     * until it returns Pick::Stop. Entries it answers Pick::Issue leave
     * the queue; @p pick must not otherwise mutate the queue.
     */
    template <class Fn>
    void
    select(Fn &&pick)
    {
        std::size_t keep = 0;
        std::size_t i = 0;
        const std::size_t n = ready_.size();
        for (; i < n; ++i) {
            Pick p = pick(static_cast<const ReadyEntry &>(ready_[i]));
            if (p == Pick::Stop)
                break;
            if (p == Pick::Issue) {
                release(*ready_[i].in);
                continue;
            }
            if (keep != i)
                ready_[keep] = ready_[i];
            ++keep;
        }
        if (keep != i) {
            std::move(ready_.begin() + i, ready_.end(),
                      ready_.begin() + keep);
            ready_.resize(n - (i - keep));
        }
    }

    /** Worker-reuse hook: empty the queue, capacity retained. */
    void reset();

    /** Oldest-first iteration over the resident instructions. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = DynInstr *;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = DynInstr *;

        const_iterator() = default;
        const_iterator(const IssueQueue *q, std::int32_t slot)
            : q_(q), slot_(slot)
        {
        }

        DynInstr *operator*() const { return q_->slots_[slot_].in; }

        const_iterator &
        operator++()
        {
            slot_ = q_->slots_[slot_].next;
            return *this;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return slot_ == o.slot_;
        }

      private:
        const IssueQueue *q_ = nullptr;
        std::int32_t slot_ = none;
    };

    const_iterator begin() const { return {this, head_}; }
    const_iterator end() const { return {this, none}; }

    // ---- state exposure for the invariant checker ----------------------

    /** The ready list, oldest first. */
    const AVec<ReadyEntry> &readyList() const { return ready_; }

    /** Call @p fn on every instruction waiting on @p phys. */
    template <class Fn>
    void
    forEachWaiter(RegIndex phys, Fn &&fn) const
    {
        for (std::int32_t n = waitHead_[phys]; n != none;
             n = nodes_[n].next)
            fn(static_cast<const DynInstr &>(*slots_[n >> 1].in));
    }

    /** Physical registers covered by the wait lists. */
    std::uint32_t numPhysRegs() const
    {
        return static_cast<std::uint32_t>(waitHead_.size());
    }

    /**
     * Fault injection for the invariant-checker tests ONLY: drop the
     * ready entry at @p pos (a lost wakeup) or unlink the first waiter
     * of @p phys without waking it (a stale wait list). Never call
     * outside tests.
     */
    void
    debugDropReady(std::size_t pos)
    {
        ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    void
    debugUnlinkWaiter(RegIndex phys)
    {
        if (waitHead_[phys] != none)
            unlinkWait(waitHead_[phys]);
    }

  private:
    static constexpr std::int32_t none = -1;

    struct Slot
    {
        DynInstr *in = nullptr;
        std::int32_t prev = none; ///< next older resident entry
        std::int32_t next = none; ///< next younger resident entry
        std::uint8_t waiting = 0; ///< sources still unwritten
    };

    /** One wait-list link; node 2s+k is source k of slot s. */
    struct WaitNode
    {
        RegIndex reg = invalidReg; ///< list it is on; invalidReg if none
        std::int32_t prev = none;
        std::int32_t next = none;
    };

    void linkWait(std::int32_t node, RegIndex phys);
    void unlinkWait(std::int32_t node);
    void makeReady(DynInstr &in);
    /** Leave the queue: unlink from the age order, free the slot. */
    void release(DynInstr &in);

    std::uint32_t capacity_;
    std::uint32_t size_ = 0;
    std::int32_t head_ = none; ///< oldest resident
    std::int32_t tail_ = none; ///< youngest resident
    AVec<Slot> slots_;
    AVec<std::int32_t> freeSlots_;
    AVec<WaitNode> nodes_;
    AVec<std::int32_t> waitHead_;
    AVec<ReadyEntry> ready_;
};

} // namespace smtavf

#endif // SMTAVF_CORE_IQ_HH
