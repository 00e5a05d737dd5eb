#include "avf/mem_trackers.hh"

#include <bit>

#include "base/logging.hh"

namespace smtavf
{

CacheVulnTracker::CacheVulnTracker(Cache &cache, AvfLedger &ledger,
                                   HwStruct data_struct, HwStruct tag_struct,
                                   bool per_byte)
    : ledger_(ledger), dataStruct_(data_struct), tagStruct_(tag_struct),
      lineBytes_(cache.config().lineBytes),
      granBytes_(per_byte ? 1 : cache.config().lineBytes),
      unitsPerLine_(lineBytes_ / granBytes_),
      maskWords_((unitsPerLine_ + 63) / 64)
{
    auto lines = cache.numLines();
    lines_.resize(lines);
    units_.resize(static_cast<std::size_t>(lines) * unitsPerLine_);
    touched_.resize(static_cast<std::size_t>(lines) * maskWords_);

    // 48-bit physical tag minus index/offset bits, plus valid/dirty/LRU.
    std::uint32_t offset_bits = std::countr_zero(lineBytes_);
    std::uint32_t index_bits = std::countr_zero(cache.numSets());
    tagBits_ = 48 - offset_bits - index_bits + 4;

    ledger_.setStructureBits(dataStruct_,
                             static_cast<std::uint64_t>(lines) * lineBytes_ *
                                 bits::cacheByte);
    ledger_.setStructureBits(tagStruct_,
                             static_cast<std::uint64_t>(lines) * tagBits_);
    cache.setObserver(this);
}

void
CacheVulnTracker::onFill(std::uint32_t slot, Addr line_addr, ThreadId tid,
                         Cycle now)
{
    (void)line_addr;
    auto &line = lines_.at(slot);
    if (line.valid)
        SMTAVF_PANIC("fill into a live tracked line (missing eviction)");
    line = {true, tid, now, now, false};
    // Every unit now reads as (now, clean) through the line's fillCycle.
    auto *mask = &touched_[static_cast<std::size_t>(slot) * maskWords_];
    for (std::uint32_t w = 0; w < maskWords_; ++w)
        mask[w] = 0;
}

void
CacheVulnTracker::onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
                           bool is_write, ThreadId tid, Cycle now)
{
    (void)tid;
    auto &line = lines_.at(slot);
    if (!line.valid)
        SMTAVF_PANIC("access to an invalid tracked line");
    line.lastAccess = now;
    if (is_write)
        line.dirty = true;

    std::uint32_t off = static_cast<std::uint32_t>(addr) &
                        (lineBytes_ - 1);
    std::uint32_t first = off / granBytes_;
    std::uint32_t last = (off + size + granBytes_ - 1) / granBytes_;
    if (last > unitsPerLine_)
        last = unitsPerLine_;

    // Each unit's interval ends here. One ending in a read carried a
    // consumed value: ACE. One ending in an overwrite was never needed
    // again: un-ACE. Units whose intervals opened in the same cycle book
    // as one run.
    const std::uint64_t write_bit = is_write ? dirtyBit : 0;
    Cycle run_since = 0;
    std::uint32_t run_len = 0;
    for (std::uint32_t b = first; b < last; ++b) {
        const std::uint64_t v = unitValue(slot, b);
        const Cycle since = v & ~dirtyBit;
        if (run_len != 0 && since != run_since) {
            bookUnits(line.tid, run_since, now, !is_write, run_len);
            run_len = 0;
        }
        run_since = since;
        ++run_len;
        units_[unitIndex(slot, b)] = now | (v & dirtyBit) | write_bit;
        touched_[maskIndex(slot, b)] |= maskBit(b);
    }
    if (run_len != 0)
        bookUnits(line.tid, run_since, now, !is_write, run_len);
}

void
CacheVulnTracker::onEvict(std::uint32_t slot, bool dirty, Cycle now)
{
    auto &line = lines_.at(slot);
    if (!line.valid)
        SMTAVF_PANIC("evicting an invalid tracked line");

    // Dirty units must survive to the writeback (ACE); clean tails are
    // dead. Untouched units are one clean run from the fill; the touched
    // ones book as runs of equal (since, dirty) state.
    const auto *mask = &touched_[static_cast<std::size_t>(slot) * maskWords_];
    std::uint32_t touched = 0;
    for (std::uint32_t w = 0; w < maskWords_; ++w)
        touched += static_cast<std::uint32_t>(std::popcount(mask[w]));
    if (touched < unitsPerLine_)
        bookUnits(line.tid, line.fillCycle, now, false,
                  unitsPerLine_ - touched);

    const std::uint64_t *units = &units_[unitIndex(slot, 0)];
    std::uint64_t run_v = 0;
    std::uint32_t run_len = 0;
    for (std::uint32_t w = 0; w < maskWords_; ++w) {
        for (std::uint64_t m = mask[w]; m != 0; m &= m - 1) {
            const std::uint64_t v = units[w * 64 + std::countr_zero(m)];
            if (run_len != 0 && v != run_v) {
                bookUnits(line.tid, run_v, now, (run_v & dirtyBit) != 0,
                          run_len);
                run_len = 0;
            }
            run_v = v;
            ++run_len;
        }
    }
    if (run_len != 0)
        bookUnits(line.tid, run_v, now, (run_v & dirtyBit) != 0, run_len);

    if (dirty || line.dirty) {
        ledger_.addInterval(tagStruct_, line.tid, tagBits_, line.fillCycle,
                            now, true);
    } else {
        ledger_.addInterval(tagStruct_, line.tid, tagBits_, line.fillCycle,
                            line.lastAccess, true);
        ledger_.addInterval(tagStruct_, line.tid, tagBits_, line.lastAccess,
                            now, false);
    }
    line.valid = false;
}

TlbVulnTracker::TlbVulnTracker(Tlb &tlb, AvfLedger &ledger,
                               HwStruct structure)
    : ledger_(ledger), struct_(structure)
{
    entries_.resize(tlb.config().entries);
    ledger_.setStructureBits(structure,
                             static_cast<std::uint64_t>(
                                 tlb.config().entries) * bits::tlbEntry);
    tlb.setObserver(this);
}

void
TlbVulnTracker::onFill(std::uint32_t slot, ThreadId tid, Cycle now)
{
    entries_.at(slot) = {true, tid, now};
}

void
TlbVulnTracker::onHit(std::uint32_t slot, ThreadId tid, Cycle now)
{
    (void)tid;
    auto &e = entries_.at(slot);
    if (!e.valid)
        SMTAVF_PANIC("TLB hit on invalid tracked entry");
    ledger_.addInterval(struct_, e.tid, bits::tlbEntry, e.last, now, true);
    e.last = now;
}

void
TlbVulnTracker::onEvict(std::uint32_t slot, Cycle now)
{
    auto &e = entries_.at(slot);
    if (!e.valid)
        SMTAVF_PANIC("TLB eviction of invalid tracked entry");
    ledger_.addInterval(struct_, e.tid, bits::tlbEntry, e.last, now, false);
    e.valid = false;
}

} // namespace smtavf
