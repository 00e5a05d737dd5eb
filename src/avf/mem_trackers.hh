/**
 * @file
 * AVF trackers for address-based structures (Biswas et al., ISCA-32):
 * the DL1 data array at per-byte granularity, the DL1 tag array, and the
 * TLBs. They observe the cache/TLB models through the observer interfaces
 * and emit classified residency intervals straight to the ledger.
 *
 * Classification rules:
 *  - data byte: an interval that *ends in a read* is ACE (the value was
 *    consumed); one that ends in an overwrite or clean eviction is un-ACE;
 *    a dirty byte's final interval is ACE through eviction (the value must
 *    survive writeback).
 *  - tag: live tag bits participate in every lookup of the set, so a dirty
 *    line's tag is ACE for its entire residency and a clean line's tag is
 *    ACE up to its last access (the tail until eviction is un-ACE). This
 *    is what makes DL1-tag AVF exceed DL1-data AVF in the paper: only the
 *    referenced bytes of a block are ACE, but all its tag bits are.
 *  - TLB entry: ACE between uses, un-ACE from last use to eviction.
 */

#ifndef SMTAVF_AVF_MEM_TRACKERS_HH
#define SMTAVF_AVF_MEM_TRACKERS_HH

#include <cstdint>
#include <vector>

#include "avf/ledger.hh"
#include "base/arena.hh"
#include "ckpt/serializer.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace smtavf
{

/** Per-byte data-array plus tag-array AVF tracking for one cache. */
class CacheVulnTracker : public CacheObserver
{
  public:
    /**
     * @param cache       the cache to observe (registers itself)
     * @param ledger      interval destination
     * @param data_struct ledger id for the data array
     * @param tag_struct  ledger id for the tag array
     * @param per_byte    track data liveness per byte (true, the paper's
     *                    model) or per whole line (the DESIGN.md ablation)
     */
    CacheVulnTracker(Cache &cache, AvfLedger &ledger, HwStruct data_struct,
                     HwStruct tag_struct, bool per_byte = true);

    void onFill(std::uint32_t slot, Addr line_addr, ThreadId tid,
                Cycle now) override;
    void onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
                  bool is_write, ThreadId tid, Cycle now) override;
    void onEvict(std::uint32_t slot, bool dirty, Cycle now) override;

    /** Tag bits modelled per line (address tag + valid/dirty/LRU state). */
    std::uint32_t tagBitsPerLine() const { return tagBits_; }

    /**
     * Worker-reuse hook: exact post-construction state, allocation-free.
     * Writes no unit state: clearing the touched masks makes every unit
     * read as (fillCycle 0, clean), the constructor's state.
     */
    void
    reset()
    {
        lines_.assign(lines_.size(), LineState{});
        touched_.assign(touched_.size(), 0);
    }

    /**
     * Checkpoint hook: the open residency intervals (absolute cycles; the
     * restored clock continues from the same value, so they close with
     * identical spans). Geometry is reconstructed from the cache config.
     * The unit table travels dense — one (since, dirty) pair per unit,
     * an untouched unit as (fillCycle, clean) — so the wire bytes do not
     * depend on which units happen to be touched.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(lines_);
        std::uint64_t n = units_.size();
        ar(n);
        if constexpr (Ar::loading) {
            if (n != units_.size() ||
                lines_.size() * unitsPerLine_ != units_.size())
                throw CheckpointError("cache tracker state does not "
                                      "match the cache geometry");
            touched_.assign(touched_.size(), 0);
        }
        for (std::uint32_t slot = 0; slot < lines_.size(); ++slot) {
            for (std::uint32_t b = 0; b < unitsPerLine_; ++b) {
                if constexpr (Ar::loading) {
                    Cycle since = 0;
                    bool dirty = false;
                    ar(since);
                    ar(dirty);
                    if (since & dirtyBit)
                        throw CheckpointError("cache tracker unit cycle "
                                              "out of range");
                    const std::size_t u = unitIndex(slot, b);
                    units_[u] = since | (dirty ? dirtyBit : 0);
                    // Units equal to the untouched value stay untouched.
                    if (dirty || since != lines_[slot].fillCycle)
                        touched_[maskIndex(slot, b)] |= maskBit(b);
                } else {
                    const std::uint64_t v = unitValue(slot, b);
                    Cycle since = v & ~dirtyBit;
                    bool dirty = (v & dirtyBit) != 0;
                    ar(since);
                    ar(dirty);
                }
            }
        }
    }

  private:
    struct LineState
    {
        bool valid = false;
        ThreadId tid = 0;
        Cycle fillCycle = 0;
        Cycle lastAccess = 0;
        bool dirty = false;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(tid);
            ar(fillCycle);
            ar(lastAccess);
            ar(dirty);
        }
    };

    /**
     * A unit's state packs into one word: the cycle its current interval
     * opened in bits 0..62, its dirty flag in bit 63.
     */
    static constexpr std::uint64_t dirtyBit = std::uint64_t{1} << 63;

    std::size_t
    unitIndex(std::uint32_t slot, std::uint32_t b) const
    {
        return static_cast<std::size_t>(slot) * unitsPerLine_ + b;
    }

    std::size_t
    maskIndex(std::uint32_t slot, std::uint32_t b) const
    {
        return static_cast<std::size_t>(slot) * maskWords_ + b / 64;
    }

    static std::uint64_t maskBit(std::uint32_t b)
    {
        return std::uint64_t{1} << (b % 64);
    }

    /** Packed state of unit @p b of line @p slot, touched or not. */
    std::uint64_t
    unitValue(std::uint32_t slot, std::uint32_t b) const
    {
        return (touched_[maskIndex(slot, b)] & maskBit(b))
                   ? units_[unitIndex(slot, b)]
                   : lines_[slot].fillCycle;
    }

    /** Book @p count data-array intervals [since of @p v, now). */
    void
    bookUnits(ThreadId tid, std::uint64_t v, Cycle now, bool ace,
              std::uint32_t count)
    {
        ledger_.addInterval(dataStruct_, tid, granBytes_ * bits::cacheByte,
                            v & ~dirtyBit, now, ace, count);
    }

    AvfLedger &ledger_;
    HwStruct dataStruct_;
    HwStruct tagStruct_;
    std::uint32_t lineBytes_;
    /** Tracking granule: 1 byte (per-byte mode) or the whole line. */
    std::uint32_t granBytes_;
    std::uint32_t unitsPerLine_;
    /** 64-bit words of one line's touched mask. */
    std::uint32_t maskWords_;
    std::uint32_t tagBits_;
    AVec<LineState> lines_;
    /**
     * Packed unit states, lines x unitsPerLine flattened. Only a unit
     * whose touched bit is set holds a meaningful value; every other
     * unit reads as (its line's fillCycle, clean), so a fill writes no
     * unit state at all.
     */
    AVec<std::uint64_t> units_;
    /** Per-line "accessed since fill" bitmasks, lines x maskWords. */
    AVec<std::uint64_t> touched_;
};

/** TLB entry residency AVF tracking. */
class TlbVulnTracker : public TlbObserver
{
  public:
    TlbVulnTracker(Tlb &tlb, AvfLedger &ledger, HwStruct structure);

    void onFill(std::uint32_t slot, ThreadId tid, Cycle now) override;
    void onHit(std::uint32_t slot, ThreadId tid, Cycle now) override;
    void onEvict(std::uint32_t slot, Cycle now) override;

    /** Worker-reuse hook: exact post-construction state, allocation-free. */
    void reset() { entries_.assign(entries_.size(), EntryState{}); }

    /** Checkpoint hook (see CacheVulnTracker::serialize). */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(entries_);
    }

  private:
    struct EntryState
    {
        bool valid = false;
        ThreadId tid = 0;
        Cycle last = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(tid);
            ar(last);
        }
    };

    AvfLedger &ledger_;
    HwStruct struct_;
    AVec<EntryState> entries_;
};

} // namespace smtavf

#endif // SMTAVF_AVF_MEM_TRACKERS_HH
