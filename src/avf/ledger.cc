#include "avf/ledger.hh"

#include "base/logging.hh"

namespace smtavf
{

AvfLedger::AvfLedger(unsigned num_threads)
    : numThreads_(num_threads)
{
    if (num_threads == 0 || num_threads > maxContexts)
        SMTAVF_FATAL("ledger thread count out of range: ", num_threads);
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        ace_[s].assign(num_threads, 0);
        unAce_[s].assign(num_threads, 0);
        aceCovered_[s].assign(num_threads, 0);
        aceResidual_[s].assign(num_threads, 0);
    }
}

void
AvfLedger::setProtection(const ProtectionConfig &protection)
{
    if (auto msg = protection.validateMsg(); !msg.empty())
        SMTAVF_FATAL("invalid protection config: ", msg);
    for (std::size_t s = 0; s < numHwStructs; ++s)
        for (unsigned t = 0; t < numThreads_; ++t)
            if (ace_[s][t] != 0 || unAce_[s][t] != 0)
                SMTAVF_FATAL("setProtection after intervals were recorded "
                             "in ", hwStructName(static_cast<HwStruct>(s)));
    protection_ = protection;
}

void
AvfLedger::setStructureBits(HwStruct s, std::uint64_t total_bits,
                            std::uint64_t per_thread_bits)
{
    if (total_bits == 0)
        SMTAVF_FATAL("structure ", hwStructName(s), " with zero bits");
    structBits_[idx(s)] = total_bits;
    perThreadBits_[idx(s)] = per_thread_bits ? per_thread_bits : total_bits;
}

void
AvfLedger::badInterval(HwStruct s, ThreadId tid, Cycle start,
                       Cycle end) const
{
    if (end < start)
        SMTAVF_PANIC("interval ends before it starts: ", start, " .. ", end,
                     " in ", hwStructName(s));
    SMTAVF_PANIC("interval from unknown thread ", tid);
}

void
AvfLedger::badCoverage(HwStruct s, std::uint64_t covered,
                       std::uint64_t bit_cycles)
{
    SMTAVF_PANIC("protection covers ", covered, " of ", bit_cycles,
                 " bit-cycles in ", hwStructName(s));
}

void
AvfLedger::finalize(Cycle total_cycles)
{
    if (total_cycles == 0)
        SMTAVF_FATAL("finalize with zero cycles");
    if (total_cycles <= baseCycle_)
        SMTAVF_FATAL("finalize at cycle ", total_cycles,
                     " inside the warmup window (boundary ", baseCycle_, ")");
    // The AVF denominator is the measured window only: warmup cycles
    // contributed no tallies (resetTallies zeroed them), so they must not
    // dilute the average either.
    totalCycles_ = total_cycles - baseCycle_;
    finalized_ = true;
    if (exposure_) {
        std::array<std::uint64_t, numHwStructs> ace{};
        for (std::size_t s = 0; s < numHwStructs; ++s)
            ace[s] = aceBitCycles(static_cast<HwStruct>(s));
        exposure_->seal(ace, structBits_, totalCycles_);
    }
}

void
AvfLedger::reset()
{
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        ace_[s].assign(numThreads_, 0);
        unAce_[s].assign(numThreads_, 0);
        aceCovered_[s].assign(numThreads_, 0);
        aceResidual_[s].assign(numThreads_, 0);
    }
    protection_ = ProtectionConfig{};
    exposure_ = nullptr;
    totalCycles_ = 0;
    baseCycle_ = 0;
    finalized_ = false;
}

void
AvfLedger::resetTallies(Cycle boundary)
{
    if (finalized_)
        SMTAVF_FATAL("resetTallies after finalize");
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        ace_[s].assign(numThreads_, 0);
        unAce_[s].assign(numThreads_, 0);
        aceCovered_[s].assign(numThreads_, 0);
        aceResidual_[s].assign(numThreads_, 0);
    }
    if (exposure_)
        exposure_->clear();
    baseCycle_ = boundary;
}

std::uint64_t
AvfLedger::aceBitCycles(HwStruct s) const
{
    std::uint64_t sum = 0;
    for (auto v : ace_[idx(s)])
        sum += v;
    return sum;
}

std::uint64_t
AvfLedger::aceBitCycles(HwStruct s, ThreadId tid) const
{
    return ace_[idx(s)].at(tid);
}

std::uint64_t
AvfLedger::unAceBitCycles(HwStruct s) const
{
    std::uint64_t sum = 0;
    for (auto v : unAce_[idx(s)])
        sum += v;
    return sum;
}

std::uint64_t
AvfLedger::coveredAceBitCycles(HwStruct s) const
{
    std::uint64_t sum = 0;
    for (auto v : aceCovered_[idx(s)])
        sum += v;
    return sum;
}

std::uint64_t
AvfLedger::coveredAceBitCycles(HwStruct s, ThreadId tid) const
{
    return aceCovered_[idx(s)].at(tid);
}

std::uint64_t
AvfLedger::residualAceBitCycles(HwStruct s) const
{
    std::uint64_t sum = 0;
    for (auto v : aceResidual_[idx(s)])
        sum += v;
    return sum;
}

std::uint64_t
AvfLedger::residualAceBitCycles(HwStruct s, ThreadId tid) const
{
    return aceResidual_[idx(s)].at(tid);
}

std::uint64_t
AvfLedger::structureBits(HwStruct s) const
{
    return structBits_[idx(s)];
}

double
AvfLedger::avf(HwStruct s) const
{
    if (!finalized_)
        SMTAVF_PANIC("avf() before finalize()");
    auto bits = structBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return avfRatio(aceBitCycles(s), bits, totalCycles_);
}

double
AvfLedger::residualAvf(HwStruct s) const
{
    if (!finalized_)
        SMTAVF_PANIC("residualAvf() before finalize()");
    auto bits = structBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return avfRatio(residualAceBitCycles(s), bits, totalCycles_);
}

double
AvfLedger::threadAvf(HwStruct s, ThreadId tid) const
{
    if (!finalized_)
        SMTAVF_PANIC("threadAvf() before finalize()");
    auto bits = perThreadBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return avfRatio(aceBitCycles(s, tid), bits, totalCycles_);
}

double
AvfLedger::occupancy(HwStruct s) const
{
    if (!finalized_)
        SMTAVF_PANIC("occupancy() before finalize()");
    auto bits = structBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return avfRatio(aceBitCycles(s) + unAceBitCycles(s), bits, totalCycles_);
}

double
AvfLedger::aceShare(HwStruct s) const
{
    auto total = aceBitCycles(s) + unAceBitCycles(s);
    return total ? static_cast<double>(aceBitCycles(s)) / total : 0.0;
}

} // namespace smtavf
