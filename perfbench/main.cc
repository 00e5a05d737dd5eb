/**
 * @file
 * perfbench: wall-clock benchmark of the smtavf library.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--holdout] [--smoke] [--workdir DIR] [--corrupt-digest]
 *
 * Runs one named workload for about S seconds, checks every result, and
 * prints each metric by name with its unit, then as the last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. Exit 0 when every check passed, 1 when one failed, 2 on a
 * usage error or when the binary is not an optimised build.
 */

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "base/rng.hh"
#include "host.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json; test_perfbench.py checks both ways.
constexpr MetricDef kEndToEnd[] = {
    {"steady_kinstr_per_s", "kinstr/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"campaign_runs_per_s", "1/s"},
    {"run_ms_p50", "ms"},
    {"run_ms_p99", "ms"},
    {"beam_evals_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.construct_ms", "ms"},
    {"sim.reset_us", "us"},
    {"sim.warmup_s", "s"},
    {"sim.host_ns_per_cycle", "ns"},
    {"core.tick_ns_p50", "ns"},
    {"core.tick_ns_p99", "ns"},
    {"core.ipc", "instr/cycle"},
    {"core.iq_occupancy", "frac"},
    {"core.rob_occupancy", "frac"},
    {"core.useful_fetch_frac", "frac"},
    {"workload.gen_ns_per_instr", "ns"},
    {"workload.instrs_generated", "count"},
    {"branch.ns_per_branch", "ns"},
    {"branch.mispredict_rate", "frac"},
    {"mem.ns_per_access", "ns"},
    {"mem.dl1_miss_rate", "frac"},
    {"mem.l2_miss_rate", "frac"},
    {"mem.il1_miss_rate", "frac"},
    {"mem.dtlb_miss_rate", "frac"},
    {"avf.iq", "frac"},
    {"avf.rob", "frac"},
    {"avf.reg", "frac"},
    {"avf.lsq_tag", "frac"},
    {"avf.dl1_tag", "frac"},
    {"avf.dead_frac", "frac"},
    {"ckpt.bytes", "B"},
    {"ckpt.encode_mb_per_s", "MB/s"},
    {"ckpt.decode_mb_per_s", "MB/s"},
    {"ckpt.restore_ms", "ms"},
    {"journal.append_us", "us"},
    {"journal.bytes_per_run", "B"},
    {"campaign.worker_busy_frac", "frac"},
    {"campaign.attempts_per_run", "count"},
    {"isolate.children", "count"},
    {"isolate.crashes", "count"},
    {"protect.evaluations", "count"},
    {"protect.journal_hits", "count"},
    {"protect.frontier_size", "count"},
    {"protect.sim_instr_per_eval", "instr"},
    {"trace.overhead_frac", "frac"},
    {"failed_frac", "frac"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--holdout] [--smoke] "
                 "[--workdir DIR] [--corrupt-digest]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool holdout = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value after " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--trace")
                opt.trace = std::stoi(value()) != 0;
            else if (a == "--workdir")
                opt.workdir = value();
            else if (a == "--holdout")
                holdout = true;
            else if (a == "--smoke")
                opt.smoke = true;
            else if (a == "--corrupt-digest")
                opt.corruptDigest = true;
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == opt.workload;
    if (!known)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    // A second seed family, never used while tuning a change, derived so
    // a later claim can be re-checked on inputs it was not fitted to.
    if (holdout)
        opt.seed = smtavf::splitSeed(opt.seed, 0x686f6c646f7574ULL);
    return opt;
}

/** Print "metric NAME VALUE UNIT" lines and the final JSON object. */
void
emit(const WorkloadResult &res, bool trace)
{
    const MetricDef *defs = trace ? kPerLayer : kEndToEnd;
    const std::size_t n = trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    std::string json;
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = res.values.find(defs[i].name);
        const double v = it == res.values.end() ? 0.0 : it->second;
        char buf[256];
        std::printf("metric %s %.17g %s\n", defs[i].name, v, defs[i].unit);
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, v, defs[i].unit);
        json += buf;
    }
    std::printf("result_crc %08x\n", res.resultCrc);
    for (const std::string &p : res.tally.problems)
        std::printf("check failed: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                res.tally.correct() ? "true" : "false",
                static_cast<unsigned long long>(res.tally.attempted),
                static_cast<unsigned long long>(res.tally.failed),
                json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // glibc raises its mmap threshold after each large free, after which
    // simulator arenas land in the heap and fragment it, so peak RSS
    // would depend on allocation history (it varied 16-22 MiB by seed on
    // one 8-context workload). A fixed threshold keeps every arena
    // mmap-backed and returned on free: peak RSS then tracks live memory.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    if (const char *why = unfitBuildReason()) {
        std::fprintf(stderr, "perfbench: refusing to report from an %s\n",
                     why);
        return 2;
    }
    printHostContext(opt);
    std::fflush(stdout);

    Tracer tracer;
    WorkloadResult res;
    try {
        std::filesystem::create_directories(opt.workdir);
        res = runWorkload(opt, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    Values &v = res.values;
    if (res.tally.attempted == 0)
        res.tally.fail(0, "no operation completed");
    v["failed_frac"] = res.tally.attempted
                           ? static_cast<double>(res.tally.failed) /
                                 static_cast<double>(res.tally.attempted)
                           : 1.0;
    // End-to-end metrics are never 0; nothing non-finite reaches JSON.
    for (const MetricDef &d : kEndToEnd)
        if (!(v[d.name] > 0.0))
            res.tally.fail(0, std::string(d.name) + " is not positive");
    for (auto &[name, value] : v)
        if (!std::isfinite(value)) {
            res.tally.fail(0, name + " is not finite");
            value = 0.0;
        }

    if (opt.trace) {
        for (const auto &[name, secs] : tracer.selfSeconds())
            std::printf("self_s %s %.6f\n", name.c_str(), secs);
        const std::string path =
            opt.workdir + "/trace-" + opt.workload + ".json";
        if (tracer.writeChrome(path, opt.workload))
            std::printf("trace %s (%zu spans)\n", path.c_str(),
                        tracer.size());
        else
            res.tally.fail(0, "cannot write " + path);
    }
    emit(res, opt.trace);
    return res.tally.correct() ? 0 : 1;
}
