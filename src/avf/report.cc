#include "avf/report.hh"

#include "base/logging.hh"
#include "base/table.hh"

namespace smtavf
{

AvfReport
AvfReport::fromLedger(const AvfLedger &ledger)
{
    if (!ledger.finalized())
        SMTAVF_PANIC("report from unfinalized ledger");

    AvfReport r;
    r.numThreads_ = ledger.numThreads();
    r.cycles_ = ledger.totalCycles();
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (ledger.structureBits(s) == 0)
            continue;
        r.avf_[i] = ledger.avf(s);
        r.occupancy_[i] = ledger.occupancy(s);
        r.residual_[i] = ledger.residualAvf(s);
        for (ThreadId t = 0; t < r.numThreads_; ++t)
            r.threadAvf_[i][t] = ledger.threadAvf(s, t);
    }
    return r;
}

AvfReport
AvfReport::restore(
    unsigned num_threads, Cycle cycles,
    const std::array<double, numHwStructs> &avf,
    const std::array<double, numHwStructs> &occupancy,
    const std::array<double, numHwStructs> &residual,
    const std::array<std::array<double, maxContexts>, numHwStructs>
        &thread_avf)
{
    if (num_threads == 0 || num_threads > maxContexts)
        SMTAVF_FATAL("restoring report with ", num_threads, " threads");
    AvfReport r;
    r.numThreads_ = num_threads;
    r.cycles_ = cycles;
    r.avf_ = avf;
    r.occupancy_ = occupancy;
    r.residual_ = residual;
    r.threadAvf_ = thread_avf;
    return r;
}

AvfReport
AvfReport::withResidual(
    const std::array<double, numHwStructs> &residual) const
{
    AvfReport r = *this;
    r.residual_ = residual;
    return r;
}

double
AvfReport::avf(HwStruct s) const
{
    return avf_[static_cast<std::size_t>(s)];
}

double
AvfReport::residualAvf(HwStruct s) const
{
    return residual_[static_cast<std::size_t>(s)];
}

double
AvfReport::threadAvf(HwStruct s, ThreadId tid) const
{
    if (tid >= numThreads_)
        SMTAVF_PANIC("threadAvf for unknown thread ", tid);
    return threadAvf_[static_cast<std::size_t>(s)][tid];
}

double
AvfReport::occupancy(HwStruct s) const
{
    return occupancy_[static_cast<std::size_t>(s)];
}

const std::vector<HwStruct> &
AvfReport::figureStructs()
{
    static const std::vector<HwStruct> order = {
        HwStruct::IQ, HwStruct::FU, HwStruct::RegFile,
        HwStruct::Dl1Data, HwStruct::Dl1Tag, HwStruct::ROB,
        HwStruct::LsqData, HwStruct::LsqTag,
    };
    return order;
}

std::string
AvfReport::str() const
{
    std::vector<std::string> header = {"structure", "AVF", "residual",
                                       "occupancy"};
    for (ThreadId t = 0; t < numThreads_; ++t)
        header.push_back("T" + std::to_string(t));
    TextTable table(std::move(header));

    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (occupancy_[i] == 0.0 && avf_[i] == 0.0)
            continue;
        std::vector<std::string> row = {hwStructName(s),
                                        TextTable::pct(avf_[i], 2),
                                        TextTable::pct(residual_[i], 2),
                                        TextTable::pct(occupancy_[i], 2)};
        for (ThreadId t = 0; t < numThreads_; ++t)
            row.push_back(TextTable::pct(threadAvf_[i][t], 2));
        table.addRow(std::move(row));
    }
    return table.str();
}

} // namespace smtavf
