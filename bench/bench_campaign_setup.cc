/**
 * @file
 * Campaign setup-throughput benchmark *and* worker-reuse gate: a
 * high-throughput AVF campaign is thousands of short runs, so the
 * per-run fixed cost — Simulator construction or reset, teardown, and
 * (in process mode) a fork per child — bounds runs/second long before
 * the simulated work does. This benchmark times a 1000-short-run
 * campaign in the three configurations that matter:
 *
 *   thread                        (reset() of the worker's simulator)
 *   process, one child per run    (a batch of one: fork per run)
 *   process, batched children     (--runs-per-child over one reused sim)
 *
 * and reports whole-campaign runs/second (items/s, real time — the pool
 * does the work off the main thread).
 *
 * Before any timing, main() asserts the contract the optimization rests
 * on and exits nonzero if it fails: a thread-mode campaign and a
 * batched-child campaign must journal byte-identical records to a serial
 * runExperiment() loop, which constructs a fresh Simulator per run (the
 * same bar tests/test_reuse.cc holds in CI; re-checked here so a
 * benchmark number can never be quoted from a binary that broke the
 * equivalence). tools/bench.sh runs this binary alongside bench_micro_sim
 * and merges the reports into BENCH_micro.json.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/isolate.hh"
#include "sim/journal.hh"
#include "workload/mixes.hh"

namespace
{

using namespace smtavf;

/** Short enough that setup cost dominates; long enough to be a run. */
constexpr std::uint64_t kBudget = 500;
constexpr std::size_t kRuns = 1000;
constexpr unsigned kJobs = 4;
constexpr unsigned kRunsPerChild = 32;

std::vector<Experiment>
shortCampaign(std::size_t n)
{
    const auto &mix = findMix("2ctx-mix-A");
    std::vector<Experiment> exps;
    exps.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Experiment e =
            makeExperiment(mix, FetchPolicyKind::Icount, kBudget);
        e.cfg.seed = 1000 + i;
        exps.push_back(std::move(e));
    }
    return exps;
}

void
BM_CampaignRuns(benchmark::State &state)
{
    const bool process = state.range(0) != 0;
    const auto rpc = static_cast<unsigned>(state.range(1));

    auto exps = shortCampaign(kRuns);
    CampaignOptions opt;
    opt.isolate = process ? IsolateMode::Process : IsolateMode::Thread;
    opt.runsPerChild = rpc;
    CampaignRunner pool(kJobs);

    std::size_t total = 0;
    for (auto _ : state) {
        auto report = runTolerant(pool, exps, opt);
        if (!report.allOk()) {
            state.SkipWithError("campaign run failed");
            return;
        }
        total += exps.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.SetLabel(std::string(process ? "process" : "thread") +
                   (rpc > 1 ? "/batch" + std::to_string(rpc) : ""));
}
// items/s == campaign runs per second (real time: pool workers run it).
BENCHMARK(BM_CampaignRuns)
    ->Args({0, 1})             // thread, reused workers
    ->Args({1, 1})             // process, one child per run
    ->Args({1, kRunsPerChild}) // process, batched reused children
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

std::vector<std::string>
journalRecords(const std::string &path)
{
    std::vector<std::string> recs;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("run ", 0) == 0)
            recs.push_back(std::move(line));
    std::sort(recs.begin(), recs.end());
    return recs;
}

/** The gate: reused and batched campaigns journal the serial records. */
int
verifyReuseEquivalence()
{
    auto exps = shortCampaign(96);

    const char *serial_path = "bench_campaign_serial.journal";
    std::remove(serial_path);
    {
        RunJournal serial(serial_path);
        for (const Experiment &e : exps)
            serial.append(experimentFingerprint(e), runExperiment(e));
    }
    const auto reference = journalRecords(serial_path);
    std::remove(serial_path);

    struct Case
    {
        const char *name;
        const char *path;
        IsolateMode mode;
        unsigned rpc;
    };
    const Case cases[] = {
        {"reused", "bench_campaign_reused.journal", IsolateMode::Thread, 1},
        {"batched", "bench_campaign_batched.journal", IsolateMode::Process,
         kRunsPerChild},
    };
    for (const Case &c : cases) {
        std::remove(c.path);
        CampaignOptions opt;
        opt.isolate = c.mode;
        opt.runsPerChild = c.rpc;
        opt.journalPath = c.path;
        CampaignRunner pool(kJobs);
        auto report = runTolerant(pool, exps, opt);
        if (!report.allOk()) {
            std::fprintf(stderr, "FAIL: %s campaign did not complete\n",
                         c.name);
            return 1;
        }
        const bool same = journalRecords(c.path) == reference;
        std::remove(c.path);
        if (!same) {
            std::fprintf(stderr,
                         "FAIL: %s campaign journal is not byte-identical "
                         "to the serial reference\n",
                         c.name);
            return 1;
        }
    }
    std::fprintf(stderr,
                 "worker-reuse gate: ok (%zu records identical across "
                 "serial, reused, and batched campaigns)\n",
                 reference.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = verifyReuseEquivalence())
        return rc;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
