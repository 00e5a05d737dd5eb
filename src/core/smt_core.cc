#include "core/smt_core.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace smtavf
{

SmtCore::ThreadContext::ThreadContext(const MachineConfig &cfg,
                                      StreamGenerator *g)
    : gen(g), rob(cfg.robSize), lsq(cfg.lsqSize), predictor(cfg.branch)
{
}

SmtCore::SmtCore(const MachineConfig &cfg,
                 std::vector<StreamGenerator *> streams, MemHierarchy &hier,
                 AvfLedger &ledger)
    : cfg_(cfg), hier_(hier), ledger_(ledger),
      analyzer_(cfg.contexts, ledger, cfg.avf.deadCodeAnalysis),
      regfile_(cfg.intPhysRegs, cfg.fpPhysRegs, ledger,
               cfg.avf.regAllocWindowUnace, cfg.avf.deadCodeAnalysis),
      iq_(cfg.iqSize, cfg.intPhysRegs + cfg.fpPhysRegs), fuPool_(cfg.fu)
{
    cfg_.validate();
    if (streams.size() != cfg_.contexts)
        SMTAVF_FATAL("need ", cfg_.contexts, " streams, got ",
                     streams.size());

    threads_.reserve(cfg_.contexts);
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        if (!streams[t])
            SMTAVF_FATAL("null stream for context ", t);
        threads_.push_back(makeArena<ThreadContext>(cfg_, streams[t]));
    }

    policy_ = makeFetchPolicy(cfg_.fetchPolicy, *this,
                              {cfg_.pratEpoch, cfg_.pratCap});

    // Size the completion wheel past the worst-case completion delta:
    // DTLB walk + DL1 + L2 + DRAM for loads, plus FU latency headroom.
    // Anything beyond the horizon still works via the overflow map.
    Cycle span = cfg_.mem.dtlb.missPenalty + cfg_.mem.dl1.latency +
                 cfg_.mem.l2.latency + cfg_.mem.memLatency + 64;
    Cycle size = 64;
    while (size < span && size < 4096)
        size *= 2;
    wheel_.resize(size);
    wheelMask_ = size - 1;

    ledger_.setStructureBits(HwStruct::IQ,
                             std::uint64_t{cfg_.iqSize} * bits::iqEntry);
    ledger_.setStructureBits(
        HwStruct::ROB,
        std::uint64_t{cfg_.contexts} * cfg_.robSize * bits::robEntry,
        std::uint64_t{cfg_.robSize} * bits::robEntry);
    ledger_.setStructureBits(
        HwStruct::LsqData,
        std::uint64_t{cfg_.contexts} * cfg_.lsqSize * bits::lsqData,
        std::uint64_t{cfg_.lsqSize} * bits::lsqData);
    ledger_.setStructureBits(
        HwStruct::LsqTag,
        std::uint64_t{cfg_.contexts} * cfg_.lsqSize * bits::lsqTag,
        std::uint64_t{cfg_.lsqSize} * bits::lsqTag);
    ledger_.setStructureBits(HwStruct::FU, fuPool_.totalBits());
}

SmtCore::~SmtCore() = default;

void
SmtCore::reset(const MachineConfig &cfg)
{
    cfg_ = cfg;
    cfg_.validate();

    analyzer_.reset();
    regfile_.reset();
    iq_.reset();
    fuPool_.reset();

    for (auto &thp : threads_) {
        auto &th = *thp;
        th.frontQueue.reset();
        th.fetchStreamIdx = 0;
        th.wrongPathMode = false;
        th.wrongPathPc = 0;
        th.seqCounter = 0;
        th.icacheStallUntil = 0;
        th.iqCount = 0;
        th.wrongPathFrontIq = 0;
        th.outL1D = 0;
        th.outL2D = 0;
        th.fetchedCount = 0;
        th.issuedCount = 0;
        th.committedCount = 0;
        th.nextCommitStreamIdx = 0;
        th.rename.reset();
        th.rob.reset();
        th.lsq.reset();
        th.predictor.reset();
    }

    policy_->reset();

    now_ = 0;
    globalDispatchSeq_ = 0;
    commitRR_ = 0;
    dispatchRR_ = 0;

    // A reusing reset only runs at a drained boundary, so the wheel and
    // overflow map are empty already; the assign/clear are belt-and-braces
    // (same-size assign and an empty-map clear allocate nothing).
    wheel_.assign(wheel_.size(), CompletionList{});
    overflow_.clear();
    pendingNotices_.clear();
    noticesScratch_.clear();

    wrongPathFetched_ = 0;
    squashedInstrs_ = 0;
    fetchedInstrs_ = 0;
    fetchEnabled_ = true;
    commitTrace_ = nullptr;

    // Re-declare the structure geometry, as the constructor does (the
    // owning Simulator has just reset the ledger).
    ledger_.setStructureBits(HwStruct::IQ,
                             std::uint64_t{cfg_.iqSize} * bits::iqEntry);
    ledger_.setStructureBits(
        HwStruct::ROB,
        std::uint64_t{cfg_.contexts} * cfg_.robSize * bits::robEntry,
        std::uint64_t{cfg_.robSize} * bits::robEntry);
    ledger_.setStructureBits(
        HwStruct::LsqData,
        std::uint64_t{cfg_.contexts} * cfg_.lsqSize * bits::lsqData,
        std::uint64_t{cfg_.lsqSize} * bits::lsqData);
    ledger_.setStructureBits(
        HwStruct::LsqTag,
        std::uint64_t{cfg_.contexts} * cfg_.lsqSize * bits::lsqTag,
        std::uint64_t{cfg_.lsqSize} * bits::lsqTag);
    ledger_.setStructureBits(HwStruct::FU, fuPool_.totalBits());
}

unsigned
SmtCore::numThreads() const
{
    return cfg_.contexts;
}

unsigned
SmtCore::inFlightCount(ThreadId tid) const
{
    const auto &th = *threads_.at(tid);
    return static_cast<unsigned>(th.frontQueue.size()) + th.iqCount;
}

unsigned
SmtCore::iqOccupancy(ThreadId tid) const
{
    return threads_.at(tid)->iqCount;
}

unsigned
SmtCore::inFlightCorrectPath(ThreadId tid) const
{
    const auto &th = *threads_.at(tid);
    unsigned total = static_cast<unsigned>(th.frontQueue.size()) +
                     th.iqCount;
    return total > th.wrongPathFrontIq ? total - th.wrongPathFrontIq : 0;
}

unsigned
SmtCore::structOccupancy(HwStruct s, ThreadId tid) const
{
    // PRAT's occupancy probe (policy/prat.hh): how many entries the
    // thread holds in each structure its in-flight instructions expose.
    // All O(1) reads of bookkeeping the pipeline maintains anyway.
    const auto &th = *threads_.at(tid);
    switch (s) {
      case HwStruct::IQ:
        return th.iqCount;
      case HwStruct::ROB:
        return static_cast<unsigned>(th.rob.size());
      case HwStruct::LsqData:
      case HwStruct::LsqTag:
        return static_cast<unsigned>(th.lsq.size());
      case HwStruct::RegFile:
        return regfile_.allocatedBy(tid);
      default:
        return 0;
    }
}

unsigned
SmtCore::outstandingL1D(ThreadId tid) const
{
    return threads_.at(tid)->outL1D;
}

unsigned
SmtCore::outstandingL2D(ThreadId tid) const
{
    return threads_.at(tid)->outL2D;
}

void
SmtCore::flushAfter(ThreadId tid, SeqNum seq)
{
    squashAfter(tid, seq);
}

std::uint64_t
SmtCore::committed(ThreadId tid) const
{
    return threads_.at(tid)->committedCount;
}

std::uint64_t
SmtCore::fetched(ThreadId tid) const
{
    return threads_.at(tid)->fetchedCount;
}

std::uint64_t
SmtCore::issued(ThreadId tid) const
{
    return threads_.at(tid)->issuedCount;
}

std::uint64_t
SmtCore::totalCommitted() const
{
    std::uint64_t sum = 0;
    for (const auto &th : threads_)
        sum += th->committedCount;
    return sum;
}

const ThreadPredictor &
SmtCore::predictor(ThreadId tid) const
{
    return threads_.at(tid)->predictor;
}

void
SmtCore::tick()
{
    ++now_;
    hier_.tick(now_);
    processCompletions();
    commitStage();
    issueStage();
    dispatchStage();
    fetchStage();
}

void
SmtCore::scheduleCompletion(const InstPtr &in, Cycle when)
{
    if (when <= now_)
        SMTAVF_PANIC("completion scheduled in the past");
    // A delta of exactly the wheel size is safe: that bucket was drained
    // and cleared earlier this cycle (processCompletions runs before any
    // scheduling stage) and will next be visited exactly at `when`.
    if (when - now_ <= wheel_.size())
        wheel_[when & wheelMask_].append(in);
    else
        overflow_[when].append(in);
}

void
SmtCore::drainCompletions(CompletionList &list)
{
    InstPtr cur = std::move(list.head);
    list.tail = nullptr;
    while (cur) {
        // Unchain before completing: the link must not outlive the
        // bucket, and a branch completion may squash chained successors
        // (they stay chained; the squashed check below skips them).
        InstPtr next = std::move(cur->completionNext);
        if (!cur->squashed)
            complete(cur);
        cur = std::move(next);
    }
}

void
SmtCore::processCompletions()
{
    // Overflow events for this cycle were scheduled strictly earlier than
    // any wheel event for the same cycle (their delta exceeded the wheel
    // horizon), so draining them first reproduces the exact batch order of
    // the former std::map-based schedule.
    while (!overflow_.empty() && overflow_.begin()->first <= now_) {
        CompletionList batch = std::move(overflow_.begin()->second);
        overflow_.erase(overflow_.begin());
        drainCompletions(batch);
    }

    // complete() never schedules for the current cycle, so the chain
    // cannot grow mid-drain.
    drainCompletions(wheel_[now_ & wheelMask_]);
}

void
SmtCore::complete(const InstPtr &in)
{
    in->completed = true;
    in->completeCycle = now_;
    auto &th = *threads_.at(in->tid);

    if (in->destPhys != invalidReg) {
        regfile_.markWritten(in->destPhys, now_);
        iq_.wakeup(in->destPhys);
    }

    if (in->op == OpClass::Load) {
        if (in->dl1Miss) {
            --th.outL1D;
            if (in->l2Miss)
                --th.outL2D;
        }
        policy_->onLoadDone(in, in->dl1Miss, in->l2Miss);
    }

    if (in->isBranch()) {
        th.predictor.train(*in);
        if (in->mispredicted && !in->wrongPath)
            squashAfter(in->tid, in->seq);
    }
}

void
SmtCore::commitStage()
{
    unsigned count = 0;
    unsigned n = cfg_.contexts;
    for (unsigned i = 0; i < n && count < cfg_.commitWidth; ++i) {
        ThreadId tid = static_cast<ThreadId>((commitRR_ + i) % n);
        auto &th = *threads_[tid];
        while (count < cfg_.commitWidth) {
            const InstPtr head = th.rob.front();
            if (!head || !head->completed || head->completeCycle >= now_)
                break;

            th.rob.popFront();
            head->closeResidency(Residency::Committed, now_);
            if (head->isMem())
                th.lsq.popCommitted(head);
            if (head->op == OpClass::Store)
                hier_.storeCommit(tid, head->memAddr, head->memSize, now_);

            regfile_.noteRead(head->srcPhys1, head->issueCycle);
            regfile_.noteRead(head->srcPhys2, head->issueCycle);

            bool exposed_dead = analyzer_.onCommit(head);
            if (head->oldDestPhys != invalidReg)
                regfile_.release(head->oldDestPhys, now_, exposed_dead);
            if (commitTrace_)
                commitTrace_->append(head);

            th.gen->retireBelow(head->streamIdx + 1);
            th.nextCommitStreamIdx = head->streamIdx + 1;
            ++th.committedCount;
            ++count;
        }
    }
    commitRR_ = (commitRR_ + 1) % n;
}

bool
SmtCore::tryIssue(DynInstr &in, unsigned &mem_ports_used)
{
    auto &th = *threads_[in.tid];
    bool forwarded = in.op == OpClass::Load && th.lsq.canForward(in);

    FuType type = fuTypeFor(in.op);
    if (!fuPool_.acquire(type, now_, fuOccupancy(in.op)))
        return false;

    if (in.op == OpClass::Store)
        th.lsq.markIssued(in);
    else
        in.issued = true;
    in.issueCycle = now_;
    ++th.issuedCount;

    std::uint32_t lat = execLatency(in.op);
    Cycle done;
    if (in.op == OpClass::Load) {
        ++mem_ports_used;
        if (forwarded) {
            done = now_ + 1;
            pendingNotices_.push_back({InstPtr(&in), false, false});
        } else {
            MemOutcome out = hier_.load(in.tid, in.memAddr, in.memSize,
                                        now_);
            in.dl1Miss = out.l1Miss;
            in.l2Miss = out.l2Miss;
            done = out.ready;
            if (out.l1Miss) {
                ++th.outL1D;
                if (out.l2Miss)
                    ++th.outL2D;
            }
            pendingNotices_.push_back({InstPtr(&in), out.l1Miss,
                                       out.l2Miss});
        }
    } else if (in.op == OpClass::Store) {
        std::uint32_t penalty = hier_.translateData(in.tid, in.memAddr,
                                                    now_);
        done = now_ + lat + penalty;
    } else {
        done = now_ + lat;
    }

    if (type != FuType::None)
        in.fuEnd = in.isMem() ? now_ + 1 : now_ + lat;

    scheduleCompletion(InstPtr(&in), done);
    return true;
}

void
SmtCore::issueStage()
{
    // Only operand-ready entries are visited, oldest first; the others
    // cannot issue this cycle. Entries dispatched this cycle are not
    // among them, because dispatch runs after issue within a tick.
    unsigned issued = 0;
    unsigned mem_ports_used = 0;
    using Pick = IssueQueue::Pick;
    iq_.select([&](const IssueQueue::ReadyEntry &e) {
        if (issued >= cfg_.issueWidth)
            return Pick::Stop;
        // A load without a DL1 port, or behind an older unissued store,
        // is skipped on the ready entry alone.
        if (e.op == OpClass::Load &&
            (mem_ports_used >= cfg_.mem.dl1.ports ||
             !threads_[e.tid]->lsq.loadMayIssue(e.seq)))
            return Pick::Skip;
        if (!tryIssue(*e.in, mem_ports_used))
            return Pick::Skip;
        auto &th = *threads_[e.tid];
        --th.iqCount;
        if (e.in->wrongPath)
            --th.wrongPathFrontIq;
        ++issued;
        return Pick::Issue;
    });

    // Deliver policy notifications now that the IQ scan is over (FLUSH may
    // squash, which mutates the IQ). Swapped into the scratch buffer so
    // both vectors keep their capacity across ticks.
    std::swap(pendingNotices_, noticesScratch_);
    for (const auto &n : noticesScratch_) {
        if (!n.load->squashed)
            policy_->onLoadIssued(n.load, n.l1Miss, n.l2Miss);
    }
    noticesScratch_.clear();
}

void
SmtCore::dispatchStage()
{
    unsigned dispatched = 0;
    unsigned n = cfg_.contexts;
    for (unsigned i = 0; i < n && dispatched < cfg_.decodeWidth; ++i) {
        ThreadId tid = static_cast<ThreadId>((dispatchRR_ + i) % n);
        auto &th = *threads_[tid];
        while (dispatched < cfg_.decodeWidth && !th.frontQueue.empty()) {
            auto &fe = th.frontQueue.front();
            if (fe.readyAt > now_)
                break;
            const InstPtr in = fe.in;
            if (th.rob.full() || iq_.full())
                break;
            if (in->isMem() && th.lsq.full())
                break;
            if (cfg_.iqPartitioned &&
                th.iqCount >= cfg_.iqSize / cfg_.contexts)
                break; // static per-thread IQ partition (Section 5)

            RegIndex dest = invalidReg;
            if (in->writesReg()) {
                dest = regfile_.alloc(isFpReg(in->destReg), tid, now_);
                if (dest == invalidReg)
                    break; // register-pool pressure stalls the thread
            }

            in->srcPhys1 = th.rename.lookup(in->srcReg1);
            in->srcPhys2 = th.rename.lookup(in->srcReg2);
            if (dest != invalidReg) {
                in->destPhys = dest;
                in->oldDestPhys = th.rename.set(in->destReg, dest);
            }

            in->globalSeq = ++globalDispatchSeq_;
            in->dispatchCycle = now_;
            th.rob.push(in);
            iq_.insert(in, regfile_.isReady(in->srcPhys1),
                       regfile_.isReady(in->srcPhys2));
            ++th.iqCount;
            if (in->isMem())
                th.lsq.push(in);
            th.frontQueue.pop_front();
            ++dispatched;
        }
    }
    dispatchRR_ = (dispatchRR_ + 1) % n;
}

void
SmtCore::fetchStage()
{
    if (!fetchEnabled_)
        return;
    const auto &order = policy_->fetchOrder(now_);
    unsigned threads_fetched = 0;
    unsigned remaining = cfg_.fetchWidth;
    for (ThreadId tid : order) {
        if (threads_fetched >= cfg_.fetchThreadsPerCycle || remaining == 0)
            break;
        unsigned got = fetchThread(tid, remaining);
        if (got > 0) {
            ++threads_fetched;
            remaining -= got;
        }
    }
}

unsigned
SmtCore::fetchThread(ThreadId tid, unsigned budget)
{
    auto &th = *threads_[tid];
    if (th.icacheStallUntil > now_)
        return 0;

    unsigned fetched = 0;
    while (fetched < budget && th.frontQueue.size() < cfg_.fetchQueueSize) {
        InstPtr in;
        if (th.wrongPathMode) {
            if (!cfg_.avf.wrongPathModel)
                break; // ablation: front end idles out mispredictions
            in = instrPool_.create(th.gen->makeWrongPath(th.wrongPathPc));
            th.wrongPathPc = th.gen->clampToCode(th.wrongPathPc + 4);
        } else {
            in = instrPool_.create(th.gen->at(th.fetchStreamIdx));
        }

        if (fetched == 0) {
            MemOutcome out = hier_.fetch(tid, in->pc, now_);
            if (out.l1Miss || out.tlbMiss) {
                th.icacheStallUntil = out.ready;
                break;
            }
        }

        in->seq = ++th.seqCounter;
        in->fetchCycle = now_;
        if (th.wrongPathMode) {
            ++wrongPathFetched_;
            ++th.wrongPathFrontIq;
        } else {
            ++th.fetchStreamIdx;
        }

        th.predictor.predict(*in);
        th.frontQueue.push_back({in, now_ + cfg_.frontLatency});
        policy_->onFetch(in);
        ++fetched;
        ++fetchedInstrs_;
        ++th.fetchedCount;

        if (in->isBranch()) {
            if (in->mispredicted) {
                th.wrongPathMode = true;
                th.wrongPathPc = th.gen->clampToCode(in->pc + 4);
                break;
            }
            if (in->predTaken)
                break; // redirect ends the fetch group
        }
    }
    return fetched;
}

void
SmtCore::squashAfter(ThreadId tid, SeqNum seq)
{
    auto &th = *threads_.at(tid);

    while (!th.frontQueue.empty() && th.frontQueue.back().in->seq > seq) {
        const InstPtr in = th.frontQueue.back().in;
        in->squashed = true;
        if (in->wrongPath)
            --th.wrongPathFrontIq;
        th.predictor.squashRecover(*in);
        if (in->op == OpClass::Load)
            policy_->onLoadDone(in, false, false);
        th.frontQueue.pop_back();
        ++squashedInstrs_;
    }

    th.rob.squashAfter(seq, [&](const InstPtr &in) {
        in->squashed = true;
        ++squashedInstrs_;
        th.predictor.squashRecover(*in);

        if (in->destPhys != invalidReg) {
            th.rename.set(in->destReg, in->oldDestPhys);
            regfile_.releaseSquashed(in->destPhys, now_);
        }
        if (in->inIq) {
            iq_.remove(in);
            --th.iqCount;
            if (in->wrongPath)
                --th.wrongPathFrontIq;
        }
        in->closeResidency(Residency::Cut, now_);
        if (in->op == OpClass::Load) {
            if (in->issued && !in->completed && in->dl1Miss) {
                --th.outL1D;
                if (in->l2Miss)
                    --th.outL2D;
            }
            policy_->onLoadDone(in, in->dl1Miss, in->l2Miss);
        }
        analyzer_.onSquash(in);
    });
    th.lsq.squashAfter(seq);

    recomputeFetchState(th);
}

void
SmtCore::recomputeFetchState(ThreadContext &th)
{
    bool wrong = false;
    std::uint64_t next_idx = th.nextCommitStreamIdx;
    auto scan = [&](const InstPtr &in) {
        if (in->isBranch() && in->mispredicted && !in->completed)
            wrong = true;
        if (!in->wrongPath && in->streamIdx + 1 > next_idx)
            next_idx = in->streamIdx + 1;
    };
    for (const auto &in : th.rob)
        scan(in);
    for (const auto &fe : th.frontQueue)
        scan(fe.in);

    th.wrongPathMode = wrong;
    if (!wrong)
        th.fetchStreamIdx = next_idx;
}

std::string
SmtCore::stateDump() const
{
    std::ostringstream os;
    os << "cycle " << now_ << " freeInt " << regfile_.freeInt()
       << " freeFp " << regfile_.freeFp() << " iq " << iq_.size() << "/"
       << iq_.capacity() << "\n";
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        const auto &th = *threads_[t];
        os << "  T" << t << " rob " << th.rob.size() << " front "
           << th.frontQueue.size() << " iq " << th.iqCount << " outL1 "
           << th.outL1D << " outL2 " << th.outL2D << " wrongPath "
           << th.wrongPathMode;
        if (const auto &head = th.rob.front()) {
            os << " | head seq " << head->seq << " op "
               << opClassName(head->op) << " inIq " << head->inIq
               << " issued " << head->issued << " completed "
               << head->completed << " src1 " << head->srcPhys1 << "("
               << regfile_.isReady(head->srcPhys1) << ") src2 "
               << head->srcPhys2 << "(" << regfile_.isReady(head->srcPhys2)
               << ")";
        }
        os << "\n";
    }
    return os.str();
}

void
SmtCore::finalizeAvf()
{
    // Close the residency of still-in-flight instructions, then resolve
    // every deferred classification conservatively live.
    for (auto &thp : threads_) {
        auto &th = *thp;
        for (const auto &in : th.rob) {
            in->closeResidency(Residency::Cut, now_);
            analyzer_.resolveLive(in);
        }
    }
    analyzer_.finish();
    regfile_.finalizeAll(now_);
}

} // namespace smtavf
