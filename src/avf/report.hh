/**
 * @file
 * End-of-run AVF report: a value object extracted from the ledger that
 * experiments, tests and bench harnesses consume without holding the
 * simulator alive.
 */

#ifndef SMTAVF_AVF_REPORT_HH
#define SMTAVF_AVF_REPORT_HH

#include <array>
#include <string>
#include <vector>

#include "avf/ledger.hh"

namespace smtavf
{

/** Immutable per-run AVF summary. */
class AvfReport
{
  public:
    AvfReport() = default;

    /** Snapshot a finalized ledger. */
    static AvfReport fromLedger(const AvfLedger &ledger);

    /**
     * Rebuild a report from previously extracted values — the
     * deserialization path of the campaign run journal (sim/journal.hh).
     * The arrays are indexed by HwStruct; @p thread_avf by [struct][tid].
     */
    static AvfReport
    restore(unsigned num_threads, Cycle cycles,
            const std::array<double, numHwStructs> &avf,
            const std::array<double, numHwStructs> &occupancy,
            const std::array<double, numHwStructs> &residual,
            const std::array<std::array<double, maxContexts>, numHwStructs>
                &thread_avf);

    /**
     * This report with its residual AVFs replaced — a protection
     * assignment priced from the run's exposure profile
     * (ExposureProfile::residualAvf). Everything else is the measured
     * run's, which protection never changes outside PRAT.
     */
    AvfReport
    withResidual(const std::array<double, numHwStructs> &residual) const;

    /** Aggregate AVF of a structure. */
    double avf(HwStruct s) const;

    /**
     * Residual AVF after the run's protection assignment
     * (protect/scheme.hh). Equals avf() bit-exactly for unprotected
     * structures.
     */
    double residualAvf(HwStruct s) const;

    /** One thread's AVF contribution to a structure. */
    double threadAvf(HwStruct s, ThreadId tid) const;

    /** Occupancy (ACE + un-ACE share of bit-cycles). */
    double occupancy(HwStruct s) const;

    unsigned numThreads() const { return numThreads_; }
    Cycle cycles() const { return cycles_; }

    /** Human-readable dump of all tracked structures. */
    std::string str() const;

    /**
     * The structures the paper's figures plot, in figure order:
     * IQ, FU, Reg, DL1_data, DL1_tag, ROB, LSQ_data, LSQ_tag.
     */
    static const std::vector<HwStruct> &figureStructs();

  private:
    unsigned numThreads_ = 0;
    Cycle cycles_ = 0;
    std::array<double, numHwStructs> avf_{};
    std::array<double, numHwStructs> occupancy_{};
    std::array<double, numHwStructs> residual_{};
    std::array<std::array<double, maxContexts>, numHwStructs> threadAvf_{};
};

} // namespace smtavf

#endif // SMTAVF_AVF_REPORT_HH
