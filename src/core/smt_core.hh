/**
 * @file
 * The SMT processor core: a cycle-level, execution-driven model of the
 * paper's Table-1 machine. Shared resources (issue queue, physical
 * register pool, function units, caches) are contended by up to eight
 * hardware contexts with private ROBs, LSQs, rename maps and branch
 * predictors — the structural sharing whose reliability consequences the
 * paper characterizes.
 *
 * Pipeline (7 stages): fetch -> decode -> rename -> dispatch -> issue ->
 * execute -> writeback, with in-order per-thread commit behind it. The
 * stages are evaluated back-to-front each cycle so same-cycle structural
 * hazards resolve naturally.
 *
 * AVF accounting: the stages stamp residency on the instructions flowing
 * through them (dispatch, issue, FU-latch end, and when and how each left
 * the pipeline); the DeadCodeAnalyzer derives and classifies the
 * per-structure intervals from those stamps, while the cache/TLB
 * observers write to the ledger directly.
 */

#ifndef SMTAVF_CORE_SMT_CORE_HH
#define SMTAVF_CORE_SMT_CORE_HH

#include <map>
#include <memory>
#include <vector>

#include "avf/dead_code.hh"
#include "avf/injection.hh"
#include "avf/ledger.hh"
#include "branch/predictor.hh"
#include "core/fu_pool.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/machine_config.hh"
#include "core/regfile.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "base/ring_buffer.hh"
#include "isa/instr_pool.hh"
#include "mem/hierarchy.hh"
#include "policy/fetch_policy.hh"
#include "workload/generator.hh"

namespace smtavf
{

/** The SMT pipeline. */
class SmtCore : public PolicyContext
{
  public:
    /**
     * @param cfg      machine parameters (validated)
     * @param streams  one instruction stream per context (size must equal
     *                 cfg.contexts); not owned
     * @param hier     memory hierarchy (shared with the AVF trackers)
     * @param ledger   AVF interval destination
     */
    SmtCore(const MachineConfig &cfg,
            std::vector<StreamGenerator *> streams, MemHierarchy &hier,
            AvfLedger &ledger);

    ~SmtCore() override;

    SmtCore(const SmtCore &) = delete;
    SmtCore &operator=(const SmtCore &) = delete;

    /** Advance one cycle. */
    void tick();

    /**
     * Worker-reuse hook: restore the exact post-construction state under a
     * (timing-shape-compatible) new configuration — clock at zero, every
     * queue empty, predictors untrained, register pool full, fetch
     * enabled. The stream generators are NOT reset here (the owning
     * Simulator re-seeds them); @p cfg replaces cfg_ wholesale so the new
     * run's seed/protection knobs take effect. Allocation-free.
     */
    void reset(const MachineConfig &cfg);

    /** Close residual AVF intervals (registers, pending deadness). */
    void finalizeAvf();

    /**
     * Gate the fetch stage (drain-then-checkpoint). With fetch disabled
     * the pipeline empties monotonically: in-flight instructions complete
     * or squash, outstanding misses return, and no new work enters.
     */
    void setFetchEnabled(bool enabled) { fetchEnabled_ = enabled; }

    bool fetchEnabled() const { return fetchEnabled_; }

    /**
     * Resolve every deferred dead-code classification at a drained
     * boundary, the same conservatively-live rule the end of a run
     * applies. Afterwards the analyzer holds no instruction references,
     * which is what lets a checkpoint travel without serializing
     * instruction objects. A checkpoint is therefore a (deterministic)
     * semantically visible event: the contract is restore-then-run ==
     * the-run-that-checkpointed-and-continued, not == a run that never
     * checkpointed (docs/CHECKPOINT.md).
     */
    void boundaryResolveDeadness() { analyzer_.finish(); }

    /**
     * True when no instruction is in flight anywhere: front-end queues,
     * ROBs and the shared IQ empty (per-thread LSQ emptiness follows from
     * ROB emptiness), no completion event scheduled, no policy notice
     * undelivered. The drained-boundary predicate of checkpoint capture.
     */
    bool
    pipelineEmpty() const
    {
        if (iq_.size() != 0 || !overflow_.empty() ||
            !pendingNotices_.empty())
            return false;
        for (const auto &thp : threads_)
            if (!thp->frontQueue.empty() || thp->rob.size() != 0)
                return false;
        for (const auto &b : wheel_)
            if (b.head)
                return false;
        return true;
    }

    /**
     * Checkpoint hook. Only callable at a drained boundary (pipelineEmpty
     * and DeadCodeAnalyzer::finish already run) — capture on a live
     * pipeline throws CheckpointError. What travels is exactly the state
     * that outlives a drain: the clock, sequence counters, cumulative
     * stats, learned predictor state, the register file with its free
     * lists (pop order is architecturally visible), FU busy horizon, the
     * dead-code tallies, rename maps and the per-thread stream
     * generators. Per-instruction state (queues, gates, outstanding-miss
     * counts, wrong-path mode) is zero at the boundary by construction on
     * both sides, so it never travels.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        if constexpr (!Ar::loading) {
            if (!pipelineEmpty())
                throw CheckpointError(
                    "checkpoint capture with instructions in flight "
                    "(drain-then-checkpoint violated)");
        }
        ar(now_);
        ar(globalDispatchSeq_);
        ar(commitRR_);
        ar(dispatchRR_);
        ar(wrongPathFetched_);
        ar(squashedInstrs_);
        ar(fetchedInstrs_);
        ar(regfile_);
        ar(fuPool_);
        ar(analyzer_);
        for (auto &thp : threads_) {
            auto &th = *thp;
            ar(th.fetchStreamIdx);
            ar(th.wrongPathPc);
            ar(th.seqCounter);
            ar(th.icacheStallUntil);
            ar(th.fetchedCount);
            ar(th.issuedCount);
            ar(th.committedCount);
            ar(th.nextCommitStreamIdx);
            ar(th.rename);
            ar(th.predictor);
            ar(*th.gen);
        }
        if constexpr (Ar::loading) {
            policy_->loadState(ar);
            totalCommitted_ = 0;
            for (const auto &thp : threads_)
                totalCommitted_ += thp->committedCount;
            // Boundary invariants (already true on a fresh core; restated
            // so a restore into a reused core cannot smuggle stale state).
            for (auto &thp : threads_) {
                thp->wrongPathMode = false;
                thp->iqCount = 0;
                thp->wrongPathFrontIq = 0;
                thp->outL1D = 0;
                thp->outL2D = 0;
            }
        } else if constexpr (std::is_same_v<Ar, ByteCounter>) {
            // saveState is a virtual taking Serializer& (it cannot be a
            // template); measure its few bytes with a scratch buffer.
            Serializer scratch;
            policy_->saveState(scratch);
            ar.add(scratch.buffer().size());
        } else {
            policy_->saveState(ar);
        }
    }

    Cycle now() const { return now_; }
    std::uint64_t committed(ThreadId tid) const;

    /**
     * Instructions committed by all threads: a running total kept at
     * commit (the run loop polls it every cycle), rebuilt from the
     * per-thread counters on reset and restore. Invariant
     * core.commit_total proves it equals their sum.
     */
    std::uint64_t totalCommitted() const { return totalCommitted_; }

    /** Invariant-test hook: skew the running commit total by @p delta. */
    void
    debugSkewCommitTotal(std::uint64_t delta)
    {
        totalCommitted_ += delta;
    }

    /** Per-thread branch predictor (stats access). */
    const ThreadPredictor &predictor(ThreadId tid) const;

    /** The active fetch policy. */
    FetchPolicy &policy() { return *policy_; }

    /** The dead-code analyzer (stats access). */
    const DeadCodeAnalyzer &deadCode() const { return analyzer_; }

    std::uint64_t wrongPathFetched() const { return wrongPathFetched_; }
    std::uint64_t squashedInstrs() const { return squashedInstrs_; }
    std::uint64_t fetchedInstrs() const { return fetchedInstrs_; }

    /** One-line-per-thread pipeline snapshot for stall diagnostics. */
    std::string stateDump() const;

    /** Current issue-queue occupancy of one thread (tests, diagnostics). */
    unsigned iqOccupancy(ThreadId tid) const;

    // ---- state exposure for the invariant checker (sim/invariants.hh) --

    /** The validated machine configuration this core was built with. */
    const MachineConfig &config() const { return cfg_; }

    /** The shared physical register pool. */
    PhysRegFile &regfileRef() { return regfile_; }
    const PhysRegFile &regfileRef() const { return regfile_; }

    /** The shared issue queue. */
    IssueQueue &issueQueue() { return iq_; }
    const IssueQueue &issueQueue() const { return iq_; }

    /** One thread's reorder buffer. */
    const Rob &rob(ThreadId tid) const { return threads_.at(tid)->rob; }

    /**
     * Invariant-test hook: stamp thread @p tid's (non-empty) ROB head as
     * squashed while it stays in flight.
     */
    void
    debugCutHeadResidency(ThreadId tid)
    {
        threads_.at(tid)->rob.front()->closeResidency(Residency::Cut, now_);
    }

    /** One thread's load/store queue. */
    Lsq &lsq(ThreadId tid) { return threads_.at(tid)->lsq; }
    const Lsq &lsq(ThreadId tid) const { return threads_.at(tid)->lsq; }

    /** The memory hierarchy (MSHR bookkeeping). */
    const MemHierarchy &hierarchy() const { return hier_; }

    /** One thread's rename table. */
    const RenameMap &
    renameMap(ThreadId tid) const
    {
        return threads_.at(tid)->rename;
    }

    /** Instructions fetched on behalf of one thread (wrong path included). */
    std::uint64_t fetched(ThreadId tid) const;

    /** Instructions issued on behalf of one thread. */
    std::uint64_t issued(ThreadId tid) const;

    /** Append committing instructions to @p trace (nullptr disables). */
    void recordCommits(CommitTrace *trace) { commitTrace_ = trace; }

    // ---- PolicyContext -------------------------------------------------
    unsigned numThreads() const override;
    unsigned inFlightCount(ThreadId tid) const override;
    unsigned inFlightCorrectPath(ThreadId tid) const override;
    unsigned outstandingL1D(ThreadId tid) const override;
    unsigned outstandingL2D(ThreadId tid) const override;
    void flushAfter(ThreadId tid, SeqNum seq) override;
    unsigned structOccupancy(HwStruct s, ThreadId tid) const override;
    const ProtectionConfig *
    protectionConfig() const override
    {
        return &cfg_.protection;
    }
    const AvfLedger *avfLedger() const override { return &ledger_; }

  private:
    /** Fetched-but-not-dispatched instruction. */
    struct FrontEntry
    {
        InstPtr in;
        Cycle readyAt; ///< earliest dispatch cycle (front-end latency)
    };

    /** Per-context pipeline state. */
    struct ThreadContext
    {
        ThreadContext(const MachineConfig &cfg, StreamGenerator *g);

        StreamGenerator *gen;
        RingBuffer<FrontEntry> frontQueue;
        std::uint64_t fetchStreamIdx = 0;
        bool wrongPathMode = false;
        Addr wrongPathPc = 0;
        SeqNum seqCounter = 0;
        Cycle icacheStallUntil = 0;
        unsigned iqCount = 0;
        /** Wrong-path instructions currently in frontQueue or IQ. */
        unsigned wrongPathFrontIq = 0;
        unsigned outL1D = 0;
        unsigned outL2D = 0;
        std::uint64_t fetchedCount = 0;
        std::uint64_t issuedCount = 0;
        std::uint64_t committedCount = 0;
        std::uint64_t nextCommitStreamIdx = 0;
        RenameMap rename;
        Rob rob;
        Lsq lsq;
        ThreadPredictor predictor;
    };

    void processCompletions();
    void commitStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();
    unsigned fetchThread(ThreadId tid, unsigned budget);

    /**
     * Try to issue one ready IQ entry; true on success. The caller has
     * already checked its operands, and for a load the DL1 port budget
     * and the LSQ's disambiguation test.
     */
    bool tryIssue(DynInstr &in, unsigned &mem_ports_used);

    /** Complete one instruction at the current cycle. */
    void complete(const InstPtr &in);

    /**
     * Squash all instructions of @p tid with seq > @p seq: ROB walk-back
     * rename recovery, resource release, un-ACE classification, front-end
     * reset.
     */
    void squashAfter(ThreadId tid, SeqNum seq);

    /** Recompute wrong-path mode and the fetch cursor after a squash. */
    void recomputeFetchState(ThreadContext &th);

    void scheduleCompletion(const InstPtr &in, Cycle when);

    /**
     * Recycles DynInstr storage across fetches (see isa/instr_pool.hh).
     * Declared ahead of every instruction owner (analyzer, queues,
     * completion wheel, notices), so it is destroyed after all of them.
     */
    InstrPool instrPool_;

    MachineConfig cfg_;
    MemHierarchy &hier_;
    AvfLedger &ledger_;
    DeadCodeAnalyzer analyzer_;

    PhysRegFile regfile_;
    IssueQueue iq_;
    FuPool fuPool_;
    AVec<ArenaPtr<ThreadContext>> threads_;
    ArenaPtr<FetchPolicy> policy_;

    Cycle now_ = 0;
    SeqNum globalDispatchSeq_ = 0;
    unsigned commitRR_ = 0;
    unsigned dispatchRR_ = 0;

    /**
     * One completion cycle's events, FIFO-chained intrusively through
     * DynInstr::completionNext: append is O(1) via the tail pointer and
     * the chain borrows the instructions' own storage, so scheduling
     * allocates nothing no matter how many events pile onto one cycle.
     * The chain's owning links keep every scheduled instruction alive
     * until its bucket drains, exactly as the former per-bucket vector
     * did.
     */
    struct CompletionList
    {
        InstPtr head;             ///< oldest-scheduled event
        DynInstr *tail = nullptr; ///< append point; null iff head empty

        void
        append(const InstPtr &in)
        {
            if (tail)
                tail->completionNext = in;
            else
                head = in;
            tail = in.get();
        }
    };

    /** Complete (in schedule order) and unchain every event of @p list. */
    void drainCompletions(CompletionList &list);

    /**
     * Completion calendar wheel: bucket `c & wheelMask_` holds the
     * instructions finishing at cycle c. Sized past the worst-case
     * FU + TLB + cache + memory latency, so in practice every event lands
     * in a bucket; anything scheduled further out than the wheel horizon
     * parks in `overflow_` and is drained (first, preserving schedule
     * order) when its cycle arrives. Together with the intrusive
     * CompletionList this makes steady-state wakeup scheduling
     * allocation-free — unlike the std::map<Cycle, vector> it replaces,
     * which paid a node allocation per distinct completion cycle.
     */
    AVec<CompletionList> wheel_;
    Cycle wheelMask_ = 0;
    std::map<Cycle, CompletionList> overflow_;

    /** Deferred policy notifications (no IQ mutation mid-issue-scan). */
    struct LoadNotice
    {
        InstPtr load;
        bool l1Miss;
        bool l2Miss;
    };
    std::vector<LoadNotice> pendingNotices_;
    /** Double buffer for pendingNotices_ delivery (reused every tick). */
    std::vector<LoadNotice> noticesScratch_;

    std::uint64_t wrongPathFetched_ = 0;
    std::uint64_t squashedInstrs_ = 0;
    std::uint64_t fetchedInstrs_ = 0;
    std::uint64_t totalCommitted_ = 0; ///< sum of committedCount

    /** Fetch gate for drain-then-checkpoint (setFetchEnabled). */
    bool fetchEnabled_ = true;

    CommitTrace *commitTrace_ = nullptr;
};

} // namespace smtavf

#endif // SMTAVF_CORE_SMT_CORE_HH
