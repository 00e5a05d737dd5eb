/**
 * @file
 * Exposure profile: an exact histogram of one run's ACE bookings, from
 * which the residual AVF of *any* protection assignment can be priced
 * without simulating again.
 *
 * Protection is an accounting overlay (protect/scheme.hh): the ledger
 * splits each closed ACE interval into covered and residual bit-cycles
 * by coveredAceBitCycles(scheme, scrub interval, bits, length), and
 * nothing else about the run depends on the assignment (PRAT aside,
 * whose throttle reads it). So a run's ACE bookings, counted by
 * (structure, bits, length), hold everything any assignment's tallies
 * are made of, and pricing from them repeats the ledger's integer
 * arithmetic exactly: same floor per interval, same multiply by the
 * count, same sums modulo 2^64.
 *
 * The profile is complete when, for every structure, the sum of
 * bits x length x count over its entries equals the ledger's ACE tally
 * at finalize. That fails when bookings escaped it, e.g. a run restored
 * from a mid-run (non-warmup) checkpoint whose tallies predate the
 * profile; an incomplete profile refuses to price.
 */

#ifndef SMTAVF_AVF_EXPOSURE_HH
#define SMTAVF_AVF_EXPOSURE_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "avf/structures.hh"
#include "base/types.hh"
#include "protect/scheme.hh"

namespace smtavf
{

/** Exact (structure, bits, length) -> count histogram of ACE bookings. */
class ExposureProfile
{
  public:
    /** One structure's ACE bit-cycles split by a protection assignment. */
    struct Split
    {
        std::uint64_t covered = 0;
        std::uint64_t residual = 0;
    };

    ExposureProfile();

    /**
     * Count @p count ACE intervals of @p bits bits and @p length cycles
     * in @p s. Zero-sized intervals carry no bit-cycles and are skipped.
     * An interval too large to key (2^20 bits or 2^40 cycles and up) is
     * left out, which the completeness identity then reports. Fatal
     * after seal().
     */
    void record(HwStruct s, std::uint32_t bits, Cycle length,
                std::uint64_t count);

    /** Forget every booking (the ledger's tallies were reset). */
    void clear();

    /**
     * Close the profile at finalize: keep the geometry and window length
     * the AVF denominators use, and the ledger's ACE totals that
     * complete() checks against. Entries are compacted per structure.
     */
    void seal(const std::array<std::uint64_t, numHwStructs> &ace_totals,
              const std::array<std::uint64_t, numHwStructs> &structure_bits,
              Cycle window_cycles);

    bool sealed() const { return sealed_; }

    /**
     * The completeness identity, checked at seal(): per structure,
     * sum(bits x length x count) == the ledger's ACE bit-cycles.
     */
    bool complete() const { return complete_; }

    /** Distinct (structure, bits, length) keys (0 before seal). */
    std::size_t keys() const { return entries_.size(); }

    /** sum(bits x length x count) over @p s's entries (0 before seal). */
    std::uint64_t aceBitCycles(HwStruct s) const;

    /**
     * Exact covered/residual bit-cycles of every structure under @p p —
     * what the ledger's tallies would read had the run carried @p p.
     * Fatal unless complete(). Safe to call concurrently: each
     * structure's split under one (scheme, scrub interval) is computed
     * once and remembered, since a search prices the same few per
     * structure over and over.
     */
    std::array<Split, numHwStructs> price(const ProtectionConfig &p) const;

    /**
     * Residual AVF per structure under @p p, by the same expression as
     * AvfLedger::residualAvf (avfRatio). Fatal unless complete().
     */
    std::array<double, numHwStructs>
    residualAvf(const ProtectionConfig &p) const;

    /**
     * Test hook: drop one entry of a sealed profile, breaking the
     * completeness identity.
     */
    void debugDropEntry();

  private:
    /** Recording: (length << 24 | bits << 4 | structure) -> count. */
    struct Slot
    {
        std::uint64_t key = 0; ///< 0 marks an empty slot (bits >= 1)
        std::uint64_t count = 0;
    };

    /** Sealed: one key, unpacked. */
    struct Entry
    {
        Cycle length = 0;
        std::uint64_t count = 0;
        std::uint32_t bits = 0;
    };

    /** One structure's split under one (scheme, scrub interval). */
    struct Priced
    {
        std::size_t s;
        ProtScheme scheme;
        Cycle scrub;
        Split split;
    };

    void grow();

    /** @p s's split under (@p scheme, @p scrub), remembered in priced_. */
    Split structureSplit(std::size_t s, ProtScheme scheme, Cycle scrub) const;

    /** Open-addressing table while recording (power-of-two size). */
    std::vector<Slot> slots_;
    unsigned log2_ = 0; ///< slots_.size() == 2^log2_
    std::size_t used_ = 0;
    /** After seal(): by structure, s in [begin_[s], begin_[s + 1]). */
    std::vector<Entry> entries_;
    std::array<std::size_t, numHwStructs + 1> begin_{};
    std::array<std::uint64_t, numHwStructs> aceTotals_{};
    std::array<std::uint64_t, numHwStructs> structBits_{};
    Cycle cycles_ = 0;
    bool sealed_ = false;
    bool complete_ = false;

    mutable std::mutex pricedMutex_;
    mutable std::vector<Priced> priced_; ///< guarded by pricedMutex_
};

} // namespace smtavf

#endif // SMTAVF_AVF_EXPOSURE_HH
