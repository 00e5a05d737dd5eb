#include "avf/dead_code.hh"

#include "base/logging.hh"

namespace smtavf
{

DeadCodeAnalyzer::DeadCodeAnalyzer(unsigned num_threads, AvfLedger &ledger,
                                   bool enabled)
    : ledger_(ledger), enabled_(enabled), pending_(num_threads)
{
}

void
DeadCodeAnalyzer::bookResidency(DynInstr &in, bool ace)
{
    if (in.residency != Residency::Committed &&
        in.residency != Residency::Cut)
        return;
    const bool committed = in.residency == Residency::Committed;
    const ThreadId tid = in.tid;
    const Cycle end = in.endCycle;
    ledger_.addInterval(HwStruct::IQ, tid, bits::iqEntry, in.dispatchCycle,
                        in.issued ? in.issueCycle : end, ace);
    if (in.fuEnd != 0)
        ledger_.addInterval(HwStruct::FU, tid, bits::fuLatch, in.issueCycle,
                            in.fuEnd, ace);
    ledger_.addInterval(HwStruct::ROB, tid, bits::robEntry, in.dispatchCycle,
                        end, ace);
    if (in.isMem()) {
        ledger_.addInterval(HwStruct::LsqTag, tid, bits::lsqTag,
                            in.dispatchCycle, end, ace);
        Cycle data_start = !committed ? in.dispatchCycle
                           : in.op == OpClass::Load ? in.completeCycle
                                                    : in.issueCycle;
        ledger_.addInterval(HwStruct::LsqData, tid, bits::lsqData,
                            data_start, end, ace);
    }
    in.residency = Residency::Booked;
}

void
DeadCodeAnalyzer::resolve(DynInstr &in, bool dead)
{
    const bool never_ace = in.neverAce();
    in.destDead = dead;
    bookResidency(in, !dead && !never_ace);
    if (in.writesReg() && !never_ace) {
        ++resolvedCount_;
        if (dead)
            ++deadCount_;
    }
}

bool
DeadCodeAnalyzer::onCommit(const InstPtr &in)
{
    auto &slots = pending_.at(in->tid);

    // Reads first: a committed consumer proves its producer live. An
    // instruction that reads and rewrites the same register (common) must
    // count the read before displacing the producer.
    for (RegIndex src : {in->srcReg1, in->srcReg2}) {
        if (src == invalidReg)
            continue;
        if (auto &producer = slots[src]) {
            resolve(*producer, false);
            producer = nullptr;
        }
    }

    if (!in->writesReg() || !enabled_) {
        resolve(*in, false);
        return false;
    }

    bool exposed_dead = false;
    if (auto &prev = slots[in->destReg]) {
        resolve(*prev, true);
        prev = nullptr;
        exposed_dead = true;
    }
    slots[in->destReg] = in;
    return exposed_dead;
}

void
DeadCodeAnalyzer::onSquash(const InstPtr &in)
{
    if (!in->squashed && !in->wrongPath)
        SMTAVF_PANIC("onSquash() for a non-squashed instruction");
    resolve(*in, false); // neverAce() forces the intervals un-ACE
}

void
DeadCodeAnalyzer::resolveLive(const InstPtr &in)
{
    resolve(*in, false);
}

void
DeadCodeAnalyzer::finish()
{
    for (auto &slots : pending_) {
        for (auto &producer : slots) {
            if (producer) {
                resolve(*producer, false);
                producer = nullptr;
            }
        }
    }
}

} // namespace smtavf
