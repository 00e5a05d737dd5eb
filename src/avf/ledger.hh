/**
 * @file
 * The AVF ledger: central accumulator of ACE / un-ACE bit-residency.
 *
 * Following Mukherjee et al. (MICRO-36), a structure's AVF is the average
 * fraction of its bits that hold ACE state:
 *
 *   AVF(s) = sum over intervals of (ACE bits x residency cycles)
 *            -------------------------------------------------------
 *                      bits(s) x total execution cycles
 *
 * Components report *closed* intervals with a final classification; the
 * deferred pieces (dynamic deadness) are resolved by DeadCodeAnalyzer
 * before reaching the ledger. Every interval carries the contributing
 * thread so per-thread AVF (the paper's Figures 3-4) falls out directly.
 */

#ifndef SMTAVF_AVF_LEDGER_HH
#define SMTAVF_AVF_LEDGER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "avf/exposure.hh"
#include "avf/structures.hh"
#include "base/arena.hh"
#include "base/types.hh"
#include "protect/scheme.hh"

namespace smtavf
{

/** Accumulates classified bit-residency per structure and thread. */
class AvfLedger
{
  public:
    explicit AvfLedger(unsigned num_threads);

    /**
     * Declare the total bit capacity of a structure. For per-thread
     * private structures (ROB, LSQ), @p per_thread_bits is the capacity of
     * one thread's instance — the denominator of that thread's AVF
     * contribution (Figure 3). Zero (default) means the structure is
     * shared and per-thread AVF uses the full capacity.
     */
    void setStructureBits(HwStruct s, std::uint64_t total_bits,
                          std::uint64_t per_thread_bits = 0);

    /**
     * Attach the protection assignment (protect/scheme.hh). Every ACE
     * interval recorded afterwards is split into covered vs. residual
     * bit-cycles per the per-structure scheme; the two tallies are
     * accumulated independently so the conservation identity
     * covered + residual == total ACE is a checkable invariant, not a
     * definition. Must be called before any interval lands (fatal
     * otherwise) — protection is a property of the whole run.
     */
    void setProtection(const ProtectionConfig &protection);

    const ProtectionConfig &protection() const { return protection_; }

    /**
     * Record @p count identical closed residency intervals [start, end) of
     * @p bits bits belonging to thread @p tid in structure @p s, already
     * classified. Booking k at once equals k single calls exactly:
     * protection coverage is floored per interval, then multiplied.
     */
    void
    addInterval(HwStruct s, ThreadId tid, std::uint32_t bits, Cycle start,
                Cycle end, bool ace, std::uint32_t count = 1)
    {
        if (end < start || tid >= numThreads_) [[unlikely]]
            badInterval(s, tid, start, end);
        const std::size_t i = idx(s);
        const std::uint64_t bit_cycles =
            static_cast<std::uint64_t>(bits) * (end - start);
        if (!ace) {
            unAce_[i][tid] += bit_cycles * count;
            return;
        }
        ace_[i][tid] += bit_cycles * count;
        if (exposure_) [[unlikely]]
            exposure_->record(s, bits, end - start, count);
        const ProtScheme scheme = protection_.scheme[i];
        if (scheme == ProtScheme::None) {
            aceResidual_[i][tid] += bit_cycles * count;
            return;
        }
        const std::uint64_t covered = smtavf::coveredAceBitCycles(
            scheme, protection_.scrubIntervalFor(s), bits, start, end);
        if (covered > bit_cycles) [[unlikely]]
            badCoverage(s, covered, bit_cycles);
        aceCovered_[i][tid] += covered * count;
        aceResidual_[i][tid] += (bit_cycles - covered) * count;
    }

    /**
     * Record every ACE booking from now on into @p profile as well (null
     * detaches). The profile covers the same window as the tallies:
     * resetTallies() clears it, reset() detaches it, and finalize()
     * seals it against the ACE tallies (ExposureProfile::complete()).
     * Attach it where the tallies are empty — the start of a run or the
     * warmup boundary — or it will not be complete. An unrecorded run pays
     * one predictable branch per ACE booking.
     */
    void
    recordExposure(std::shared_ptr<ExposureProfile> profile)
    {
        exposure_ = std::move(profile);
    }

    /** Fix the run length; AVFs are undefined before this is called. */
    void finalize(Cycle total_cycles);

    /**
     * Discard everything accumulated so far and start the measured window
     * at @p boundary — the warm-up boundary (Simulator `--warmup`). All
     * four tallies zero; finalize() later divides by end - boundary, so
     * AVFs cover exactly the post-warmup window. Callable any number of
     * times before finalize().
     */
    void resetTallies(Cycle boundary);

    /**
     * Worker-reuse hook: back to the exact post-construction state —
     * tallies zeroed, window base and protection cleared, un-finalized.
     * Structure geometry persists (the reusing core re-declares the same
     * bits). setProtection() becomes legal again. Allocation-free.
     */
    void reset();

    /** Start cycle of the measured window (0 unless resetTallies ran). */
    Cycle baseCycle() const { return baseCycle_; }

    /** Aggregate AVF of a structure over the whole run. */
    double avf(HwStruct s) const;

    /**
     * Residual AVF: the fraction of bits still vulnerable once the
     * structure's protection scheme is accounted for. Equals avf()
     * bit-exactly for unprotected structures.
     */
    double residualAvf(HwStruct s) const;

    /** The AVF contribution of one thread to a structure. */
    double threadAvf(HwStruct s, ThreadId tid) const;

    /** Fraction of bit-cycles occupied at all (ACE + un-ACE). */
    double occupancy(HwStruct s) const;

    /** Fraction of occupied bit-cycles that are ACE. */
    double aceShare(HwStruct s) const;

    std::uint64_t structureBits(HwStruct s) const;
    Cycle totalCycles() const { return totalCycles_; }
    unsigned numThreads() const { return numThreads_; }
    bool finalized() const { return finalized_; }

    /** Raw ACE bit-cycles (for tests and MITF computations). */
    std::uint64_t aceBitCycles(HwStruct s) const;
    std::uint64_t aceBitCycles(HwStruct s, ThreadId tid) const;
    std::uint64_t unAceBitCycles(HwStruct s) const;

    /** ACE bit-cycles covered by the structure's protection scheme. */
    std::uint64_t coveredAceBitCycles(HwStruct s) const;
    std::uint64_t coveredAceBitCycles(HwStruct s, ThreadId tid) const;

    /** ACE bit-cycles left vulnerable after protection. */
    std::uint64_t residualAceBitCycles(HwStruct s) const;
    std::uint64_t residualAceBitCycles(HwStruct s, ThreadId tid) const;

    /**
     * Checkpoint hook: the accumulated tallies and the window base.
     * Geometry (structBits_/perThreadBits_) and the protection split are
     * reconstructed by the restoring Simulator's constructor from its own
     * config — which the checkpoint fingerprint guarantees compatible.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(ace_);
        ar(unAce_);
        ar(aceCovered_);
        ar(aceResidual_);
        ar(baseCycle_);
    }

  private:
    std::size_t idx(HwStruct s) const
    {
        return static_cast<std::size_t>(s);
    }

    /** Panic on a reversed interval or an unknown thread. */
    [[noreturn, gnu::cold]] void badInterval(HwStruct s, ThreadId tid,
                                             Cycle start, Cycle end) const;

    /** Panic on protection covering more than the interval's bits. */
    [[noreturn, gnu::cold]] static void
    badCoverage(HwStruct s, std::uint64_t covered, std::uint64_t bit_cycles);

    unsigned numThreads_;
    std::array<std::uint64_t, numHwStructs> structBits_{};
    std::array<std::uint64_t, numHwStructs> perThreadBits_{};
    // [structure][thread]
    std::array<AVec<std::uint64_t>, numHwStructs> ace_;
    std::array<AVec<std::uint64_t>, numHwStructs> unAce_;
    // ACE split by protection; aceCovered_ + aceResidual_ must equal ace_
    // (sim/invariants.cc proves the conservation every check period).
    std::array<AVec<std::uint64_t>, numHwStructs> aceCovered_;
    std::array<AVec<std::uint64_t>, numHwStructs> aceResidual_;
    ProtectionConfig protection_{};
    std::shared_ptr<ExposureProfile> exposure_; ///< see recordExposure
    Cycle totalCycles_ = 0;
    Cycle baseCycle_ = 0;
    bool finalized_ = false;
};

} // namespace smtavf

#endif // SMTAVF_AVF_LEDGER_HH
