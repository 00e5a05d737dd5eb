/**
 * @file
 * Top-level simulation driver: builds the ledger, memory hierarchy, AVF
 * trackers, workload streams and the SMT core for one (config, mix) pair,
 * runs to an instruction budget, and returns a SimResult.
 *
 * Checkpoint/restore (docs/CHECKPOINT.md): a Simulator can capture its
 * whole state at a *drained boundary* (pipeline empty, MSHRs empty,
 * deferred deadness resolved) into a Checkpoint, and a freshly
 * constructed Simulator with a compatible config can restore it and
 * continue bit-identically to the run that captured it. Warmup
 * (`--warmup N`) uses the same boundary: statistics and AVF tallies reset
 * there, so the SimResult covers only the measured window.
 */

#ifndef SMTAVF_SIM_SIMULATOR_HH
#define SMTAVF_SIM_SIMULATOR_HH

#include <atomic>
#include <memory>
#include <vector>

#include "avf/interval_series.hh"
#include "base/arena.hh"
#include "avf/ledger.hh"
#include "avf/mem_trackers.hh"
#include "ckpt/checkpoint.hh"
#include "core/machine_config.hh"
#include "core/smt_core.hh"
#include "mem/hierarchy.hh"
#include "metrics/metrics.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace smtavf
{

/**
 * Process-wide count of instructions actually simulated (committed),
 * summed over every Simulator in this process. Shared-warmup benchmarks
 * read and reset it to prove how much simulation a reused checkpoint
 * saved; it feeds no simulation semantics.
 */
std::atomic<std::uint64_t> &simulatedInstructionCounter();

/** Optional per-run controls of Simulator::run (all off by default). */
struct RunControls
{
    /**
     * Commit this many instructions, then drain, reset all statistics and
     * AVF tallies, and run the measured budget on top. 0 = no warmup.
     */
    std::uint64_t warmup = 0;

    /**
     * Capture a checkpoint once this many instructions committed in
     * total (must lie inside the run). 0 = never.
     */
    std::uint64_t checkpointAt = 0;

    /** File to write the checkpointAt capture to ("" = don't write). */
    std::string checkpointOut;

    /** In-memory destination of the checkpointAt capture (optional). */
    Checkpoint *checkpointCapture = nullptr;

    /**
     * Close an AVF sample row every N committed instructions
     * (SimResult::avfIntervals). 0 = off.
     */
    std::uint64_t avfInterval = 0;

    /**
     * Record the measured window's ACE bookings into an exposure profile
     * (avf/exposure.hh), returned as SimResult::exposure, from which any
     * protection assignment's residual AVF can be priced exactly. Changes
     * no other output, and is no part of any fingerprint.
     */
    bool recordExposure = false;
};

/**
 * One simulation instance. A Simulator is single-use per *run* —
 * construct (or reset()), run once, read the result — but the instance
 * itself is reusable: reset() returns it to exact post-construction
 * state, allocation-free, whenever the next run's timing shape matches
 * (timingShapeFingerprint in sim/journal.hh). Campaign workers exploit
 * this to pay construction once per worker instead of once per run.
 *
 * All setup-time containers are carved from a private monotonic Arena
 * (base/arena.hh): member order puts the arena and an ArenaCtorScope
 * ahead of every sub-structure, so their constructors see the arena as
 * the thread's current one and bump-allocate instead of hitting the
 * global heap. The scope is released at the end of the constructor
 * body; run-time growth (lazy scratch vectors) uses the heap as before.
 */
class Simulator
{
  public:
    /**
     * @param cfg machine parameters; cfg.contexts must match the mix
     * @param mix the workload (one benchmark per context)
     * @param stream_ids per-thread stream seeding identities (empty: each
     *        thread seeds by its own context id). Used by single-thread
     *        baseline runs to replay an SMT context's exact stream.
     */
    Simulator(const MachineConfig &cfg, const WorkloadMix &mix,
              std::vector<std::uint32_t> stream_ids = {});

    /**
     * Build from explicit profiles instead of registry names — the entry
     * point for custom workloads (one profile per context).
     */
    Simulator(const MachineConfig &cfg,
              std::vector<BenchmarkProfile> profiles,
              const std::string &name = "custom");

    /**
     * Run until @p instr_budget instructions commit in total (all
     * threads) and return the result. Single use. With warmup or after
     * restore(), the budget counts instructions committed *after* the
     * boundary/restore point.
     */
    SimResult run(std::uint64_t instr_budget,
                  const RunControls &rc = RunControls{});

    /**
     * Adopt a checkpoint's state (before run()). Recomputes the
     * checkpoint fingerprint from this simulator's own config/mix and
     * throws CheckpointError when it disagrees with the stored one —
     * restoring under a different seed, machine geometry, workload, or
     * (for non-warmup checkpoints) protection scheme is rejected rather
     * than silently diverging.
     */
    void restore(const Checkpoint &ck);

    /**
     * Run @p warmup_instrs instructions, drain, reset tallies, and
     * return the warmup-boundary checkpoint. Single use (the instance is
     * consumed). Equivalent state to run()'s own `--warmup` boundary, so
     * a run restored from this checkpoint is bit-identical to a
     * `--warmup N` run of the same experiment — that equivalence is what
     * lets campaigns share one warmup across candidates.
     */
    Checkpoint captureWarmupCheckpoint(std::uint64_t warmup_instrs);

    /**
     * True when this instance can be reset() for a run of
     * (@p cfg, @p mix): every timing-shape field must match the
     * construction-time one (same geometry, policy, workload, AVF model
     * options — see timingShapeFingerprint), because reset() reuses the
     * existing structures in place. Seed and protection may differ
     * freely, and per-thread stream ids must not have been overridden at
     * construction (the campaign path never does).
     */
    bool canResetTo(const MachineConfig &cfg, const WorkloadMix &mix) const;

    /**
     * Return to exact post-construction state for a run of
     * (@p cfg, @p mix) — bit-identical to destroying this instance and
     * constructing Simulator(cfg, mix), and allocation-free
     * (tests/test_alloc_steady.cc gates it at zero heap allocations).
     * Fatal when !canResetTo(cfg, mix). Mirrors the constructor's order:
     * ledger, hierarchy, trackers, stream generators (re-seeded from
     * cfg.seed), core, prewarm.
     */
    void reset(const MachineConfig &cfg, const WorkloadMix &mix);

    /** Committed-instruction count adopted from restore() (else 0). */
    std::uint64_t restoredCommitted() const { return restoredCommitted_; }

    /** Direct access for white-box tests. */
    SmtCore &core() { return *core_; }
    MemHierarchy &hierarchy() { return hier_; }
    AvfLedger &ledger() { return ledger_; }

  private:
    /**
     * Counter snapshot at the measured-window start. All-zero for plain
     * runs, so subtracting it reproduces whole-run statistics exactly; a
     * warmup boundary fills it, making every SimResult figure a
     * measured-window delta. Travels inside checkpoints so a restored
     * run subtracts the same baseline as the run that captured it.
     */
    struct RunBaseline
    {
        Cycle cycle = 0;
        std::array<std::uint64_t, maxContexts> committed{};
        std::uint64_t wrongPathFetched = 0;
        std::uint64_t squashed = 0;
        std::uint64_t dl1Hits = 0, dl1Misses = 0;
        std::uint64_t l2Hits = 0, l2Misses = 0;
        std::uint64_t il1Hits = 0, il1Misses = 0;
        std::uint64_t dtlbHits = 0, dtlbMisses = 0;
        std::array<std::uint64_t, maxContexts> branches{};
        std::array<std::uint64_t, maxContexts> mispredicts{};
        std::uint64_t dead = 0, resolved = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(cycle);
            ar(committed);
            ar(wrongPathFetched);
            ar(squashed);
            ar(dl1Hits);
            ar(dl1Misses);
            ar(l2Hits);
            ar(l2Misses);
            ar(il1Hits);
            ar(il1Misses);
            ar(dtlbHits);
            ar(dtlbMisses);
            ar(branches);
            ar(mispredicts);
            ar(dead);
            ar(resolved);
        }
    };

    /** Watchdog/invariant bookkeeping shared by the tick loops. */
    struct LoopState
    {
        std::uint64_t lastCommitted = 0;
        Cycle lastProgress = 0;
        Cycle lastChecked = 0;
    };

    void prewarm();

    /** Tick until @p target instructions committed in total. */
    void advanceUntil(std::uint64_t target, LoopState &ls,
                      AvfTimeline *timeline, AvfIntervalSeries *series);

    /**
     * Disable fetch and tick until the pipeline and MSHRs are empty
     * (bounded; SMTAVF_FATAL if quiescence is never reached), then
     * re-enable fetch.
     */
    void drainPipeline(LoopState &ls, AvfTimeline *timeline,
                       AvfIntervalSeries *series);

    /** Snapshot all cumulative counters into baseline_. */
    void captureBaseline();

    /** Serialize the full machine state into a Checkpoint. */
    Checkpoint makeCheckpoint(std::uint64_t at, bool warmup_boundary);

    /**
     * The one list of checkpointed state, shared by the ByteCounter
     * sizing pass, the Serializer write and the Deserializer read so
     * the three can never disagree on field order.
     */
    template <class Ar> void visitState(Ar &ar);

    /**
     * Declared first so every member below is constructed (and carves
     * its setup-time containers) under ctorScope_ — C++ guarantees
     * member construction in declaration order. The scope is released
     * at the end of each constructor body.
     */
    Arena arena_;
    ArenaCtorScope ctorScope_;

    MachineConfig cfg_;
    WorkloadMix mix_;
    std::vector<std::uint32_t> streamIds_;
    AvfLedger ledger_;
    MemHierarchy hier_;
    CacheVulnTracker dl1Tracker_;
    TlbVulnTracker dtlbTracker_;
    TlbVulnTracker itlbTracker_;
    /** Present when MachineConfig::avf.trackL2Avf (per-line granularity). */
    ArenaPtr<CacheVulnTracker> l2Tracker_;
    AVec<ArenaPtr<StreamGenerator>> gens_;
    ArenaPtr<SmtCore> core_;
    RunBaseline baseline_;
    std::uint64_t restoredCommitted_ = 0;
    bool restored_ = false;
    bool ran_ = false;
};

} // namespace smtavf

#endif // SMTAVF_SIM_SIMULATOR_HH
