/**
 * @file
 * The four workloads. Each repeats its operation — set up, then one
 * timed operation — until the run's seconds are spent, checks every
 * result, and reports the best sample of the run (the fastest time, the
 * highest rate): noise from other tenants of the host only adds time,
 * so the best sample is the steadiest estimate of the program's cost.
 *
 *  - steady-8ctx-mix / steady-2ctx-cpu: one warmed ICOUNT run, timed
 *    over the measured window only (Simulator::run after restoring the
 *    warmup checkpoint); each window is a sample;
 *  - campaign-process: a runTolerant campaign of short runs in forked,
 *    batched children with a journal;
 *  - beam-thread: ProtectionExplorer::exploreBeam with a shared warmup
 *    on the thread pool.
 *
 * Every end-to-end metric is reported on every workload; README.md says
 * what each one means where the workload is not its home.
 */

#include "workloads.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>

#include "host.hh"
#include "layers.hh"
#include "protect/explorer.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using namespace smtavf;

namespace
{

constexpr unsigned kMaxJobs = 4;

/** Workers of the untimed thread-mode reference: one per CPU. */
unsigned
jobs()
{
    return std::min(kMaxJobs, hostCpus());
}

/**
 * Process-mode workers: one CPU is left for the supervisor, which reads
 * the children's pipes and appends the journal while they run.
 */
unsigned
processJobs()
{
    return std::clamp(hostCpus() - 1, 1u, kMaxJobs);
}

MachineConfig
configFor(const WorkloadMix &mix, FetchPolicyKind policy, std::uint64_t seed)
{
    MachineConfig cfg = table1Config(mix.contexts);
    cfg.fetchPolicy = policy;
    cfg.seed = seed;
    return cfg;
}

/** Protection can only remove exposure: residual AVF <= raw AVF. */
bool
avfSane(const SimResult &r)
{
    for (HwStruct s : AvfReport::figureStructs())
        if (!(r.avf.residualAvf(s) <= r.avf.avf(s)))
            return false;
    return true;
}

/** The --corrupt-digest hook: flip one bit of a digest input. */
void
corrupt(std::string &s)
{
    if (!s.empty())
        s[s.size() / 2] ^= 0x01;
}

std::uint32_t
crcOfRecords(const std::vector<std::string> &records)
{
    // Reserved exactly: a doubling string's transient copy raised peak
    // RSS by 1.5 MiB on the seeds whose records crossed a power of two.
    std::size_t size = 0;
    for (const std::string &r : records)
        size += r.size() + 1;
    std::string all;
    all.reserve(size);
    for (const std::string &r : records) {
        all += r;
        all += '\n';
    }
    return crc32c(all);
}

/**
 * Call @p rep(0), rep(1), ... until @p seconds of wall clock have passed,
 * at least @p min_reps and at most @p max_reps times.
 */
void
repeat(double seconds, unsigned min_reps, unsigned max_reps,
       const std::function<void(unsigned)> &rep)
{
    const auto t0 = Clock::now();
    for (unsigned n = 0; n < max_reps; ++n) {
        if (n >= min_reps && secondsSince(t0) >= seconds)
            break;
        rep(n);
    }
}

/** Seconds the untraced repetitions get; a traced run halves them. */
double
untracedSeconds(const Options &opt)
{
    return opt.trace ? opt.seconds / 2 : opt.seconds;
}

unsigned
minReps(const Options &opt)
{
    return opt.smoke ? 2 : 3;
}

/**
 * Traced repetitions. trace.overhead_frac compares their median with the
 * untraced median: a best of three against a best of many would count
 * the difference in sample counts as overhead.
 */
constexpr unsigned kTracedReps = 3;

/** Samples every workload collects: one per repetition or window. */
struct RepSamples
{
    std::vector<double> setup;    ///< s before the first timed operation
    std::vector<double> wall;     ///< s of the timed operation
    std::vector<double> kinstr;   ///< simulated kinstr per wall second
    std::vector<double> okRuns;   ///< Ok runs per wall second
    std::vector<double> simEvals; ///< simulated evaluations per second
    std::vector<double> runP50;   ///< ms, per-run wall median
    std::vector<double> runP99;   ///< ms, per-run wall 99th percentile

    /** Each metric is the run's best sample (fastest time, best rate). */
    void
    report(Values &v) const
    {
        v["steady_kinstr_per_s"] = best(kinstr);
        v["setup_s"] = fastest(setup);
        v["campaign_runs_per_s"] = best(okRuns);
        v["beam_evals_per_s"] = best(simEvals);
        v["run_ms_p50"] = fastest(runP50);
        v["run_ms_p99"] = fastest(runP99);
        std::printf("samples %zu set-ups %zu\n", wall.size(), setup.size());
    }
};

/** One repetition's timed wall and process CPU seconds, and digest. */
void
printRep(unsigned rep, double wall, double cpu, std::uint32_t crc)
{
    std::printf("rep %u wall_s=%.6f cpu_s=%.6f cpu_per_wall=%.3f "
                "result_crc=%08x\n",
                rep, wall, cpu, cpu / wall, crc);
}

void
printSetup(unsigned i, double setup)
{
    std::printf("setup %u setup_s=%.6f\n", i, setup);
}

// ---------------------------------------------------------------- steady

/** Measured windows per steady repetition. */
constexpr unsigned kWindows = 12;

struct SteadySpec
{
    const char *mix;
    std::uint64_t warmup;
    std::uint64_t budget;
};

void
steady(const SteadySpec &spec, const Options &opt, Tracer &tr,
       WorkloadResult &res)
{
    const WorkloadMix &mix = findMix(spec.mix);
    const MachineConfig cfg =
        configFor(mix, FetchPolicyKind::Icount, opt.seed);
    const std::uint64_t warmup = opt.smoke ? 2000 : spec.warmup;
    const std::uint64_t budget = opt.smoke ? 2000 : spec.budget;
    const std::uint64_t fp =
        experimentFingerprint(Experiment{spec.mix, cfg, mix, budget, warmup});

    // A repetition sets up once — construct, warm up and capture,
    // construct again and restore — then runs kWindows measured windows
    // on that simulator, resetting it and restoring the warmup before
    // each window after the first, as a campaign worker reuses its
    // instance. Every capture must be byte-identical and every window
    // must produce the same record. Each set-up and each window is one
    // sample.
    RepSamples s;
    Checkpoint ck;
    std::string first;
    SimResult kept;
    repeat(untracedSeconds(opt), minReps(opt), 1000, [&](unsigned rep) {
        const auto t0 = Clock::now();
        Checkpoint c;
        {
            Simulator warm(cfg, mix);
            c = warm.captureWarmupCheckpoint(warmup);
        }
        Simulator sim(cfg, mix);
        sim.restore(c);
        s.setup.push_back(secondsSince(t0));
        printSetup(rep, s.setup.back());
        if (rep == 0)
            ck = std::move(c);
        else if (c.payload != ck.payload)
            res.tally.fail(0, "warmup checkpoints differ between set-ups");

        double wall = 0.0, cpu = 0.0;
        std::uint32_t crc = 0;
        for (unsigned w = 0; w < kWindows; ++w) {
            if (w > 0) {
                sim.reset(cfg, mix);
                sim.restore(ck);
            }

            const double cpu0 = cpuSeconds();
            const auto t1 = Clock::now();
            SimResult r = sim.run(budget);
            const double secs = secondsSince(t1);
            cpu += cpuSeconds() - cpu0;
            wall += secs;
            s.wall.push_back(secs);
            s.kinstr.push_back(static_cast<double>(r.totalCommitted) /
                               secs / 1e3);
            s.okRuns.push_back(1.0 / secs);
            s.simEvals.push_back(1.0 / secs);
            s.runP50.push_back(secs * 1e3);
            s.runP99.push_back(secs * 1e3);

            std::string rec = serializeRun(fp, r);
            if (opt.corruptDigest && rep == 1 && w == 0)
                corrupt(rec);
            if (first.empty()) {
                first = rec;
                kept = r;
            }
            crc = crc32c(rec);
            // run() stops at the end of the cycle that reaches the budget,
            // so the last cycle may commit up to commitWidth - 1 past it.
            const bool budget_ok = r.totalCommitted >= budget &&
                                   r.totalCommitted < budget + cfg.commitWidth;
            const bool avf_ok = avfSane(r);
            res.tally.check(budget_ok && avf_ok && rec == first, 1,
                            !budget_ok ? "committed instructions miss the "
                                         "budget"
                            : !avf_ok  ? "residual AVF above raw AVF"
                                       : "result differs from window 0");
        }
        printRep(rep, wall, cpu, crc);
    });
    s.report(res.values);
    res.resultCrc = crc32c(first);

    if (!opt.trace)
        return;
    SimProbe p{cfg, mix, warmup, budget, first, fastest(s.wall)};
    const double traced = probeSimulator(p, tr, res.tally, res.values);
    res.values["trace.overhead_frac"] = traced / median(s.wall) - 1.0;
    probeReplay(cfg, mix, opt.smoke ? 2000 : 50000, tr, res.values);
    std::vector<std::uint64_t> fps(256, fp);
    std::vector<const SimResult *> rs(256, &kept);
    probeJournal(fps, rs, opt.workdir + "/probe.journal", tr, res.values);
}

// -------------------------------------------------------------- campaign

struct Combo
{
    const char *mix;
    FetchPolicyKind policy;
};

/** Shapes the campaign cycles through, four consecutive runs each. */
constexpr Combo kCombos[] = {
    {"2ctx-mix-A", FetchPolicyKind::Icount},
    {"2ctx-cpu-A", FetchPolicyKind::Icount},
    {"2ctx-mix-A", FetchPolicyKind::Flush},
    {"2ctx-mem-A", FetchPolicyKind::Icount},
    {"2ctx-cpu-A", FetchPolicyKind::Flush},
    {"2ctx-mem-A", FetchPolicyKind::Flush},
};

std::vector<Experiment>
campaignExperiments(std::size_t n, std::uint64_t budget, std::uint64_t seed)
{
    constexpr std::size_t ncombos = sizeof kCombos / sizeof kCombos[0];
    std::vector<Experiment> exps;
    exps.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Combo &c = kCombos[(i / 4) % ncombos];
        exps.push_back(makeExperiment(findMix(c.mix), c.policy, budget));
    }
    deriveSeeds(exps, seed);
    return exps;
}

/** Record lines of a journal file, sorted (completion order varies). */
std::vector<std::string>
sortedJournalRecords(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

/**
 * Journal records of a thread-mode run of @p exps, outside every timed
 * region. It runs in a forked child, so the thread-mode simulators never
 * count toward this process's peak memory or make its later forks
 * dearer. A run that is not Ok leaves an empty record and fails a check.
 */
std::vector<std::string>
threadModeRecords(const std::vector<Experiment> &exps,
                  const std::vector<std::uint64_t> &fps,
                  const std::string &path, Tally &tally)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        tally.fail(0, "fork for the thread-mode reference failed");
        return std::vector<std::string>(exps.size());
    }
    if (pid == 0) {
        int code = 0;
        try {
            CampaignRunner pool(jobs());
            const CampaignReport rep = runTolerant(pool, exps);
            std::ofstream out(path);
            for (std::size_t i = 0; i < exps.size(); ++i) {
                const RunOutcome &o = rep.outcomes[i];
                if (o.status == RunStatus::Ok)
                    out << serializeRun(fps[i], o.result);
                else
                    code = 3;
                out << '\n';
            }
            out.close();
            if (!out)
                code = 4;
        } catch (...) {
            code = 5;
        }
        _exit(code);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    std::vector<std::string> records;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        records.push_back(line);
    std::filesystem::remove(path);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        records.size() != exps.size()) {
        tally.fail(0, "thread-mode reference campaign did not complete");
        records.resize(exps.size());
    }
    return records;
}

void
campaign(const Options &opt, Tracer &tr, WorkloadResult &res)
{
    const std::size_t n = opt.smoke ? 64 : 1024;
    const std::uint64_t budget = opt.smoke ? 300 : 1000;
    const unsigned runs_per_child = 4;
    const std::string journal = opt.workdir + "/campaign.journal";

    const std::vector<Experiment> ref_exps =
        campaignExperiments(n, budget, opt.seed);
    std::vector<std::uint64_t> fps;
    for (const Experiment &e : ref_exps)
        fps.push_back(experimentFingerprint(e));
    const std::vector<std::string> ref = threadModeRecords(
        ref_exps, fps, opt.workdir + "/reference.records", res.tally);
    std::vector<std::string> ref_sorted = ref;
    std::sort(ref_sorted.begin(), ref_sorted.end());
    res.resultCrc = crcOfRecords(ref);

    CampaignOptions copt;
    copt.isolate = IsolateMode::Process;
    copt.runsPerChild = runs_per_child;
    copt.journalPath = journal;

    // One repetition; @p traced adds spans and fills the layer metrics.
    auto one = [&](unsigned rep, RepSamples &s, bool traced) {
        const auto t0 = Clock::now();
        std::unique_ptr<CampaignRunner> pool;
        std::vector<Experiment> exps;
        {
            Tracer::Scope span(tr, "campaign.setup");
            pool = std::make_unique<CampaignRunner>(processJobs());
            exps = campaignExperiments(n, budget, opt.seed);
            std::filesystem::remove(journal);
        }
        s.setup.push_back(secondsSince(t0));

        std::vector<double> run_s(n, 0.0);
        auto progress = [&](const CampaignProgress &p) {
            run_s[p.index] = p.seconds;
            if (traced) {
                const std::uint64_t end = nowNs();
                tr.add("campaign.run",
                       end - static_cast<std::uint64_t>(p.seconds * 1e9),
                       end, p.index);
            }
        };
        const double cpu0 = cpuSeconds();
        const auto t1 = Clock::now();
        CampaignReport report;
        {
            Tracer::Scope span(tr, "campaign.runTolerant");
            report = runTolerant(*pool, exps, copt, progress);
        }
        const double wall = secondsSince(t1);
        const double cpu = cpuSeconds() - cpu0;

        // Gate: every run Ok and identical to thread mode; the journal
        // fsck-clean and holding exactly those records.
        std::vector<std::string> records(n);
        double ok = 0.0, committed = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const RunOutcome &o = report.outcomes[i];
            if (o.status != RunStatus::Ok)
                continue;
            ok += 1.0;
            committed += static_cast<double>(o.result.totalCommitted);
            records[i] = serializeRun(fps[i], o.result);
        }
        if (opt.corruptDigest && rep == 1)
            corrupt(records[0]);
        const JournalFsck fsck = fsckJournal(journal);
        const bool journal_ok = fsck.clean() && fsck.records == n &&
                                sortedJournalRecords(journal) == ref_sorted;
        if (!journal_ok)
            res.tally.fail(0, "journal not clean or not the thread-mode "
                              "records");
        for (std::size_t i = 0; i < n; ++i)
            res.tally.check(journal_ok &&
                                report.outcomes[i].status == RunStatus::Ok &&
                                records[i] == ref[i],
                            1, "run " + std::to_string(i) +
                                   " differs from its thread-mode record");
        printSetup(rep, s.setup.back());
        printRep(rep, wall, cpu, crcOfRecords(records));

        s.wall.push_back(wall);
        s.kinstr.push_back(committed / wall / 1e3);
        s.okRuns.push_back(ok / wall);
        s.simEvals.push_back(ok / wall);
        s.runP50.push_back(quantile(run_s, 0.5) * 1e3);
        s.runP99.push_back(quantile(run_s, 0.99) * 1e3);

        if (!traced)
            return;
        double busy = 0.0, attempts = 0.0, retries = 0.0, crashes = 0.0;
        std::vector<std::uint64_t> jfps;
        std::vector<const SimResult *> results;
        for (std::size_t i = 0; i < n; ++i) {
            const RunOutcome &o = report.outcomes[i];
            busy += run_s[i];
            attempts += o.attempts;
            retries += o.attempts > 1 ? o.attempts - 1 : 0;
            crashes += o.crash != CrashKind::None ? 1.0 : 0.0;
            if (o.status == RunStatus::Ok) {
                jfps.push_back(fps[i]);
                results.push_back(&o.result);
            }
        }
        Values &v = res.values;
        v["campaign.worker_busy_frac"] = busy / (wall * pool->jobs());
        v["campaign.attempts_per_run"] = attempts / static_cast<double>(n);
        // runTolerant does not count forks; one child per batch plus one
        // per retry dispatch is what its batching code does.
        v["isolate.children"] =
            static_cast<double>((n + runs_per_child - 1) / runs_per_child) +
            retries;
        v["isolate.crashes"] = crashes;
        probeJournal(jfps, results, opt.workdir + "/probe.journal", tr, v);
    };

    RepSamples s;
    repeat(untracedSeconds(opt), minReps(opt), 100,
           [&](unsigned rep) { one(rep, s, false); });
    s.report(res.values);
    std::printf("largest child peak_rss_mb=%.3f (the thread-mode "
                "reference child included)\n",
                peakRssMb(true));

    if (!opt.trace)
        return;
    RepSamples traced;
    for (unsigned i = 0; i < kTracedReps; ++i) {
        Tracer::Scope span(tr, "campaign.traced");
        one(static_cast<unsigned>(s.wall.size() + i), traced, true);
    }
    res.values["trace.overhead_frac"] =
        median(s.okRuns) / median(traced.okRuns) - 1.0;
    const Combo &c = kCombos[0];
    const WorkloadMix &mix = findMix(c.mix);
    const std::uint64_t probe_len = opt.smoke ? 2000 : 20000;
    const MachineConfig cfg = configFor(mix, c.policy, ref_exps[0].cfg.seed);
    probeSimulator(SimProbe{cfg, mix, probe_len, probe_len, "", 0.0}, tr,
                   res.tally, res.values);
    probeReplay(cfg, mix, probe_len, tr, res.values);
}

// ------------------------------------------------------------------ beam

/**
 * Beam workers. Each generation waits for its slowest evaluation, so with
 * several workers a slow spell on any one CPU of a shared host stretches
 * the whole exploration: over five seeds the quartile spread of
 * beam_evals_per_s was 0.15 with 4 workers, 0.10 with 2 and 0.06 with 1.
 * One worker still runs the thread-pool campaign path.
 */
constexpr unsigned kBeamJobs = 1;

void
beam(const Options &opt, Tracer &tr, WorkloadResult &res)
{
    const WorkloadMix &mix = findMix("4ctx-mix-A");
    const MachineConfig cfg =
        configFor(mix, FetchPolicyKind::Icount, opt.seed);
    const std::uint64_t warmup = opt.smoke ? 2000 : 50000;
    const std::uint64_t budget = opt.smoke ? 2000 : 10000;
    BeamOptions bopt;
    bopt.beamWidth = opt.smoke ? 2 : 4;
    bopt.generations = opt.smoke ? 1 : 2;
    // A capped exploration (generation 0's 18 seeds, then the best of
    // generation 1) keeps a repetition near one second on one worker, so
    // a 30-second run has some 20 samples to take the best of.
    bopt.evalBudget = opt.smoke ? 0 : 40;
    bopt.warmup = warmup;
    bopt.sharedWarmup = true;
    const ProtectionExplorer explorer(cfg, mix, budget);
    const std::uint64_t fp =
        experimentFingerprint(Experiment{"beam", cfg, mix, budget, warmup});

    std::string first_csv;
    SimResult kept;
    ExplorationResult last;
    double last_instrs = 0.0;

    auto one = [&](unsigned rep, RepSamples &s) {
        const auto t0 = Clock::now();
        std::unique_ptr<CampaignRunner> pool;
        SimResult baseline;
        {
            Tracer::Scope span(tr, "beam.setup");
            pool = std::make_unique<CampaignRunner>(kBeamJobs);
            Checkpoint ck;
            {
                Simulator warm(cfg, mix);
                ck = warm.captureWarmupCheckpoint(warmup);
            }
            Simulator base(cfg, mix);
            base.restore(ck);
            baseline = base.run(budget);
        }
        s.setup.push_back(secondsSince(t0));

        const auto instrs0 = simulatedInstructionCounter().load();
        const double cpu0 = cpuSeconds();
        const auto t1 = Clock::now();
        {
            Tracer::Scope span(tr, "protect.exploreBeam");
            last = explorer.exploreBeam(*pool, bopt);
        }
        const double wall = secondsSince(t1);
        const double cpu = cpuSeconds() - cpu0;
        last_instrs = static_cast<double>(
            simulatedInstructionCounter().load() - instrs0);

        std::string csv = last.csv();
        if (opt.corruptDigest && rep == 1)
            corrupt(csv);
        if (first_csv.empty()) {
            first_csv = csv;
            kept = baseline;
        }
        const double evals =
            static_cast<double>(last.evaluations - last.journalHits + 1);
        const bool ok = csv == first_csv && !last.frontier.empty() &&
                        last.journalHits == 0 && !last.points.empty() &&
                        last.points[0].ipc == baseline.ipc &&
                        avfSane(baseline);
        res.tally.check(ok, last.evaluations + 1,
                        "frontier CSV or baseline differs from "
                        "repetition 0");
        printSetup(rep, s.setup.back());
        printRep(rep, wall, cpu, crc32c(csv));

        s.wall.push_back(wall);
        s.kinstr.push_back(last_instrs / wall / 1e3);
        s.okRuns.push_back(static_cast<double>(last.points.size()) / wall);
        s.simEvals.push_back(evals / wall);
        // exploreBeam reports no per-evaluation times: its wall time per
        // simulated evaluation stands in for both percentiles.
        s.runP50.push_back(wall / evals * 1e3);
        s.runP99.push_back(wall / evals * 1e3);
    };

    RepSamples s;
    repeat(untracedSeconds(opt), minReps(opt), 100,
           [&](unsigned rep) { one(rep, s); });
    s.report(res.values);
    res.resultCrc = crc32c(first_csv);

    if (!opt.trace)
        return;
    RepSamples traced;
    for (unsigned i = 0; i < kTracedReps; ++i) {
        Tracer::Scope span(tr, "beam.traced");
        one(static_cast<unsigned>(s.wall.size() + i), traced);
    }
    Values &v = res.values;
    v["trace.overhead_frac"] =
        median(s.simEvals) / median(traced.simEvals) - 1.0;
    const double sim_evals =
        static_cast<double>(last.evaluations - last.journalHits + 1);
    v["protect.evaluations"] = static_cast<double>(last.evaluations);
    v["protect.journal_hits"] = static_cast<double>(last.journalHits);
    v["protect.frontier_size"] = static_cast<double>(last.frontier.size());
    v["protect.sim_instr_per_eval"] = last_instrs / sim_evals;

    const std::string record = serializeRun(fp, kept);
    probeSimulator(SimProbe{cfg, mix, warmup, budget, record, 0.0}, tr,
                   res.tally, v);
    probeReplay(cfg, mix, opt.smoke ? 2000 : 30000, tr, v);
    std::vector<std::uint64_t> fps(256, fp);
    std::vector<const SimResult *> rs(256, &kept);
    probeJournal(fps, rs, opt.workdir + "/probe.journal", tr, v);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "steady-8ctx-mix", "steady-2ctx-cpu", "campaign-process",
        "beam-thread"};
    return names;
}

WorkloadResult
runWorkload(const Options &opt, Tracer &tracer)
{
    WorkloadResult res;
    if (opt.workload == "steady-8ctx-mix")
        steady({"8ctx-mix-A", 100000, 20000}, opt, tracer, res);
    else if (opt.workload == "steady-2ctx-cpu")
        steady({"2ctx-cpu-A", 100000, 80000}, opt, tracer, res);
    else if (opt.workload == "campaign-process")
        campaign(opt, tracer, res);
    else if (opt.workload == "beam-thread")
        beam(opt, tracer, res);
    res.values["peak_rss_mb"] = peakRssMb();
    return res;
}

} // namespace perfbench
