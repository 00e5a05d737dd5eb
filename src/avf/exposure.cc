#include "avf/exposure.hh"

#include <algorithm>

#include "base/logging.hh"

namespace smtavf
{

namespace
{

/** Room for a typical 4-context run's keys without growing. */
constexpr unsigned kInitialLog2 = 14;

constexpr unsigned kBitsShift = 4;
constexpr unsigned kLengthShift = 24;
constexpr std::uint64_t kStructMask = (std::uint64_t{1} << kBitsShift) - 1;
constexpr std::uint64_t kBitsMask =
    (std::uint64_t{1} << (kLengthShift - kBitsShift)) - 1;

/** Fibonacci hash of a packed key into a table of 2^@p log2 slots. */
std::size_t
slotOf(std::uint64_t key, unsigned log2)
{
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    (64 - log2));
}

} // namespace

ExposureProfile::ExposureProfile()
    : slots_(std::size_t{1} << kInitialLog2), log2_(kInitialLog2)
{
}

void
ExposureProfile::record(HwStruct s, std::uint32_t bits, Cycle length,
                        std::uint64_t count)
{
    if (sealed_)
        SMTAVF_PANIC("exposure booking after the profile was sealed");
    if (bits == 0 || length == 0 || count == 0)
        return;
    if (bits > kBitsMask || length >> (64 - kLengthShift))
        return; // unkeyable: complete() will say so
    const std::uint64_t key = length << kLengthShift |
                              std::uint64_t{bits} << kBitsShift |
                              static_cast<unsigned>(s);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slotOf(key, log2_);; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.key == key) {
            slot.count += count;
            return;
        }
        if (slot.key == 0) {
            slot = {key, count};
            if (++used_ * 4 > slots_.size() * 3)
                grow();
            return;
        }
    }
}

void
ExposureProfile::grow()
{
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    ++log2_;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.key == 0)
            continue;
        std::size_t i = slotOf(slot.key, log2_);
        while (slots_[i].key != 0)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

void
ExposureProfile::clear()
{
    if (sealed_)
        SMTAVF_PANIC("clearing a sealed exposure profile");
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
}

void
ExposureProfile::seal(
    const std::array<std::uint64_t, numHwStructs> &ace_totals,
    const std::array<std::uint64_t, numHwStructs> &structure_bits,
    Cycle window_cycles)
{
    if (sealed_)
        SMTAVF_PANIC("exposure profile sealed twice");
    // Bucket the keys by structure (the low key bits); integer sums do
    // not depend on the order within a structure.
    begin_.fill(0);
    for (const Slot &slot : slots_)
        if (slot.key != 0)
            ++begin_[(slot.key & kStructMask) + 1];
    for (std::size_t s = 0; s < numHwStructs; ++s)
        begin_[s + 1] += begin_[s];
    std::array<std::size_t, numHwStructs> next{};
    std::copy(begin_.begin(), begin_.end() - 1, next.begin());
    entries_.assign(used_, Entry{});
    for (const Slot &slot : slots_) {
        if (slot.key == 0)
            continue;
        const auto bits =
            static_cast<std::uint32_t>(slot.key >> kBitsShift & kBitsMask);
        entries_[next[slot.key & kStructMask]++] = {
            slot.key >> kLengthShift, slot.count, bits};
    }
    std::vector<Slot>().swap(slots_);
    used_ = 0;
    aceTotals_ = ace_totals;
    structBits_ = structure_bits;
    cycles_ = window_cycles;
    sealed_ = true;
    complete_ = true;
    for (std::size_t s = 0; s < numHwStructs; ++s)
        complete_ = complete_ &&
                    aceBitCycles(static_cast<HwStruct>(s)) == aceTotals_[s];
}

std::uint64_t
ExposureProfile::aceBitCycles(HwStruct s) const
{
    const auto i = static_cast<std::size_t>(s);
    std::uint64_t sum = 0;
    for (std::size_t k = begin_[i]; k < begin_[i + 1]; ++k)
        sum += std::uint64_t{entries_[k].bits} * entries_[k].length *
               entries_[k].count;
    return sum;
}

std::array<ExposureProfile::Split, numHwStructs>
ExposureProfile::price(const ProtectionConfig &p) const
{
    if (!complete_)
        SMTAVF_PANIC("pricing from an incomplete exposure profile");
    // The ledger's arithmetic per booking, grouped: the covered share of
    // one interval is floored first, then multiplied by its count. An
    // unprotected structure's residual is its whole ACE tally, which the
    // completeness identity equated with its entries' sum.
    std::array<Split, numHwStructs> out{};
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        const auto s = static_cast<HwStruct>(i);
        const ProtScheme scheme = p.schemeFor(s);
        if (scheme == ProtScheme::None)
            out[i].residual = aceTotals_[i];
        else
            out[i] = structureSplit(i, scheme,
                                    scheme == ProtScheme::SecdedScrub
                                        ? p.scrubIntervalFor(s)
                                        : 0);
    }
    return out;
}

ExposureProfile::Split
ExposureProfile::structureSplit(std::size_t s, ProtScheme scheme,
                                Cycle scrub) const
{
    {
        std::lock_guard<std::mutex> lock(pricedMutex_);
        for (const Priced &p : priced_)
            if (p.s == s && p.scheme == scheme && p.scrub == scrub)
                return p.split;
    }
    Split split;
    for (std::size_t k = begin_[s]; k < begin_[s + 1]; ++k) {
        const Entry &e = entries_[k];
        const std::uint64_t bit_cycles = std::uint64_t{e.bits} * e.length;
        const std::uint64_t covered =
            coveredAceBitCycles(scheme, scrub, e.bits, 0, e.length);
        split.covered += covered * e.count;
        split.residual += (bit_cycles - covered) * e.count;
    }
    // A concurrent caller may have added the same split meanwhile: it is
    // the same value, so a duplicate row is harmless.
    std::lock_guard<std::mutex> lock(pricedMutex_);
    priced_.push_back({s, scheme, scrub, split});
    return split;
}

std::array<double, numHwStructs>
ExposureProfile::residualAvf(const ProtectionConfig &p) const
{
    const auto splits = price(p);
    std::array<double, numHwStructs> out{};
    for (std::size_t i = 0; i < numHwStructs; ++i)
        if (structBits_[i] != 0)
            out[i] = avfRatio(splits[i].residual, structBits_[i], cycles_);
    return out;
}

void
ExposureProfile::debugDropEntry()
{
    if (!sealed_ || entries_.empty())
        SMTAVF_PANIC("debugDropEntry needs a sealed, non-empty profile");
    std::size_t s = 0;
    while (begin_[s + 1] == 0)
        ++s;
    entries_.erase(entries_.begin());
    for (std::size_t i = s + 1; i <= numHwStructs; ++i)
        --begin_[i];
    complete_ = complete_ &&
                aceBitCycles(static_cast<HwStruct>(s)) == aceTotals_[s];
}

} // namespace smtavf
