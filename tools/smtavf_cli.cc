/**
 * @file
 * smtavf command-line driver: run any workload mix under any fetch policy
 * and configuration, print the performance/AVF summary, and optionally
 * dump the per-structure results or the AVF timeline as CSV for plotting.
 *
 * Examples:
 *   smtavf_cli --list
 *   smtavf_cli --mix 4ctx-mem-A --policy FLUSH --instructions 400000
 *   smtavf_cli --mix 8ctx-mix-B --iq-partition --csv
 *   smtavf_cli --mix 4ctx-cpu-A --sample 5000 --timeline-csv
 *
 * The `campaign` subcommand fans a whole experiment list over a worker
 * pool with per-run progress/timing lines; results are bit-identical for
 * any --jobs value (see sim/campaign.hh). Campaigns are fault tolerant:
 * failing runs are retried, deterministic failures quarantined, and with
 * --journal every finished run is persisted so an interrupted campaign
 * resumes where it left off (docs/ROBUSTNESS.md):
 *   smtavf_cli campaign --jobs 4
 *   smtavf_cli campaign --contexts 4 --policy all
 *   smtavf_cli campaign --mix 4ctx-mem-A --mix 4ctx-cpu-A --master-seed 7
 *   smtavf_cli campaign --journal runs.journal --retries 2
 *   smtavf_cli campaign --journal runs.journal --resume
 *
 * The `protect` subcommand attaches a protection assignment (parity,
 * SECDED ECC, scrubbing; per structure) and reports residual AVF and
 * the area/energy cost, or sweeps assignments for the Pareto frontier
 * (docs/PROTECTION.md):
 *   smtavf_cli protect --mix 4ctx-mix-A --scheme secded
 *   smtavf_cli protect --assign iq=ecc,regfile=parity --csv
 *   smtavf_cli protect --mix 4ctx-mem-A --explore --jobs 4
 *
 * Exit codes: 0 success; 1 the simulation itself failed (livelock,
 * invariant violation); 2 bad usage or configuration; 3 a campaign
 * completed but some runs did not produce results. 130 on forced SIGINT.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "ckpt/checkpoint.hh"
#include "metrics/metrics.hh"
#include "protect/cost.hh"
#include "protect/explorer.hh"
#include "protect/options.hh"
#include "protect/scheme.hh"
#include "sim/campaign.hh"
#include "sim/config.hh"
#include "sim/errors.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace
{

using namespace smtavf;

void
usage()
{
    std::puts(
        "usage: smtavf_cli [run] [options]\n"
        "       smtavf_cli campaign [campaign options]\n"
        "       smtavf_cli protect [protect options]\n"
        "       smtavf_cli merge-journals --out FILE IN1 [IN2 ...]\n"
        "       smtavf_cli journal fsck [--repair] FILE\n"
        "  --mix NAME            workload mix (default 4ctx-mix-A)\n"
        "  --policy NAME         fetch policy: RR ICOUNT FLUSH STALL DG\n"
        "                        PDG DWarn PSTALL RAT PRAT (default ICOUNT)\n"
        "  --prat-epoch N        PRAT: cycles between ledger residual\n"
        "                        refreshes (default 4096)\n"
        "  --prat-cap N          PRAT: throttle cap in correct-path\n"
        "                        instructions (default: the RAT cap)\n"
        "  --instructions N      total committed-instruction budget\n"
        "  --seed N              simulation seed (default 1)\n"
        "  --replicas N          run N seeds and report mean +/- std\n"
        "  --sample N            AVF timeline window in cycles (0 = off)\n"
        "  --warmup N            commit N instructions, drain, and reset\n"
        "                        stats/AVF tallies before measuring\n"
        "  --checkpoint-at N     capture a checkpoint once N instructions\n"
        "                        committed in total (needs --checkpoint-out)\n"
        "  --checkpoint-out F    write the --checkpoint-at capture to F\n"
        "  --restore F           adopt checkpoint F and continue; the run\n"
        "                        is bit-identical to the uninterrupted one.\n"
        "                        --instructions stays the *total* commit\n"
        "                        target and must exceed the checkpoint's\n"
        "  --avf-interval N      close an AVF sample row every N committed\n"
        "                        instructions and print the series as CSV\n"
        "  --avf-interval-csv F  write that series to F instead of stdout\n"
        "  --iq-partition        static per-thread IQ partitioning\n"
        "  --no-dead-code        disable dynamic dead-code analysis\n"
        "  --no-wrong-path       disable wrong-path fetch/execution\n"
        "  --per-line-cache      per-line (not per-byte) DL1 tracking\n"
        "  --no-prewarm          skip cache/TLB pre-warming\n"
        "  --csv                 machine-readable per-structure output\n"
        "  --json                full result as JSON on stdout\n"
        "  --timeline-csv        dump the AVF timeline as CSV\n"
        "  --table1              print the machine configuration and exit\n"
        "  --list                list mixes and policies and exit\n"
        "\n"
        "campaign options:\n"
        "  --jobs N              worker threads (default: SMTAVF_JOBS or\n"
        "                        hardware concurrency)\n"
        "  --mix NAME            add one mix (repeatable; default: all)\n"
        "  --contexts N          restrict to N-context mixes\n"
        "  --policy NAME|all     fetch policy per run (default ICOUNT;\n"
        "                        'all' crosses mixes with every policy)\n"
        "  --prat-epoch N        PRAT refresh period (see run options)\n"
        "  --prat-cap N          PRAT throttle cap (see run options)\n"
        "  --instructions N      per-run committed-instruction budget\n"
        "  --master-seed N       derive run i's seed as splitSeed(N, i)\n"
        "  --retries N           extra attempts per failing run (default 1)\n"
        "  --journal FILE        append finished runs to FILE as they land\n"
        "  --resume              replay journaled runs instead of re-running\n"
        "  --timeout SECONDS     stop dispatching new runs after this long\n"
        "  --shard I/N           run only every N-th experiment starting\n"
        "                        at I (0-based); seeds match the unsharded\n"
        "                        campaign, so shard journals merge losslessly\n"
        "                        with merge-journals\n"
        "  --isolate MODE        'thread' (default) or 'process': fork a\n"
        "                        sandboxed child per run so crashes and\n"
        "                        runaway runs are classified, not fatal;\n"
        "                        results are bit-identical across modes\n"
        "  --runs-per-child N    process: batch N consecutive runs into one\n"
        "                        sandboxed child over a reused simulator;\n"
        "                        a crash loses only the in-flight run and\n"
        "                        the remainder is re-dispatched (default 1)\n"
        "  --hard-timeout SECS   process: SIGKILL a child past this wall\n"
        "                        clock (per run; scaled by --runs-per-child;\n"
        "                        works on wedged runs; 0 = off)\n"
        "  --child-cpu SECS      process: per-child RLIMIT_CPU (per run;\n"
        "                        scaled by the batch size)\n"
        "  --child-mem MB        process: per-child RLIMIT_AS in MiB\n"
        "  --backoff SECS        exponential retry backoff base with\n"
        "                        seed-deterministic jitter (default 0)\n"
        "  --cancel-check N      thread: poll the Ctrl-C flag inside each\n"
        "                        simulation every N cycles (default off)\n"
        "  --warmup N            per-run warmup instructions (see above)\n"
        "  --shared-warmup       simulate each distinct warmup prefix once,\n"
        "                        checkpoint it, and restore it per run;\n"
        "                        results are bit-identical to per-run warmup\n"
        "  --checkpoint-dir DIR  process mode: directory for the shared\n"
        "                        warmup checkpoint files (default: TMPDIR)\n"
        "  --csv                 per-run CSV summary instead of a table\n"
        "\n"
        "merge-journals: combine shard journals into one deduplicated,\n"
        "fingerprint-sorted journal usable with campaign --resume.\n"
        "Inputs are CRC-verified first; any corruption is reported with\n"
        "file/line/byte offsets and the merge refuses (exit 3).\n"
        "\n"
        "journal fsck: verify a campaign journal record by record (CRC32C\n"
        "on v3 records, structure on legacy v2). Reports every torn or\n"
        "corrupt line with its byte offset; --repair truncates a damaged\n"
        "tail (the crash-in-mid-append case) in place. Exit 0 when clean\n"
        "or repaired, 3 when damage remains.\n"
        "\n"
        "protect options (docs/PROTECTION.md):\n"
        "  --mix NAME            workload mix (default 4ctx-mix-A)\n"
        "  --policy NAME         fetch policy (default ICOUNT)\n"
        "  --prat-epoch N        PRAT refresh period (needs --policy PRAT)\n"
        "  --prat-cap N          PRAT throttle cap (needs --policy PRAT)\n"
        "  --instructions N      committed-instruction budget per run\n"
        "  --seed N              simulation seed (default 1)\n"
        "  --scheme NAME         uniform scheme for every structure:\n"
        "                        none parity secded secded+scrub\n"
        "  --assign LIST         per-structure schemes, e.g.\n"
        "                        iq=secded,regfile=parity,rob=scrub\n"
        "  --scrub-interval N    scrubbing period in cycles (default 10000)\n"
        "  --explore[=MODE]      sweep assignments and print the Pareto\n"
        "                        frontier; MODE is 'prefix' (scheme x top-k\n"
        "                        hotspots, the default) or 'beam' (beam\n"
        "                        search over mixed per-structure schemes\n"
        "                        with per-structure scrub intervals)\n"
        "  --depth N             prefix: top-N hotspots (default 4);\n"
        "                        beam: search the top-N hotspots (default 6)\n"
        "  --beam-width N        beam candidates kept per generation "
        "(default 8)\n"
        "  --generations N       beam expansion rounds (default 3)\n"
        "  --budget N            beam: at most N candidate evaluations,\n"
        "                        journal replays included (0 = unlimited)\n"
        "  --journal FILE        beam: journal evaluated runs + search trace\n"
        "  --resume              beam: replay journaled candidates\n"
        "  --warmup N            warm every evaluation up by N instructions\n"
        "  --shared-warmup       beam: simulate the warmup once and restore\n"
        "                        its checkpoint for every candidate\n"
        "  --jobs N              worker threads for --explore\n"
        "  --csv                 machine-readable output\n"
        "  --json                full result as JSON\n"
        "\n"
        "exit codes: 0 ok, 1 simulation failure, 2 bad usage/config,\n"
        "            3 campaign completed with failed runs, or journal\n"
        "              corruption found by fsck/merge-journals\n"
        "            4 checkpoint rejected (corrupt, truncated, or from an\n"
        "              incompatible configuration)\n");
}

/** Usage and configuration mistakes exit 2, distinct from sim failures. */
[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "smtavf_cli: %s\n", msg.c_str());
    std::exit(2);
}

/**
 * Strict numeric flag parsing: "abc", "", "12x" and negative values like
 * "--seed -3" are usage errors, never silently wrapped or truncated.
 */
std::uint64_t
parseNum(const char *flag, const char *value)
{
    if (!value)
        die(std::string(flag) + " needs a value");
    std::uint64_t v = 0;
    if (!strictParseU64(value, v))
        die(std::string("bad number for ") + flag + ": '" + value +
            "' (need a non-negative integer)");
    return v;
}

/** Strict non-negative seconds (plain decimal, fractions allowed). */
double
parseSeconds(const char *flag, const char *value)
{
    if (!value)
        die(std::string(flag) + " needs a value");
    char *end = nullptr;
    double v = std::strtod(value, &end);
    if (!end || end == value || *end != '\0' || !(v >= 0.0))
        die(std::string("bad duration for ") + flag + ": '" + value + "'");
    return v;
}

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

/**
 * Full single-run result as JSON: run summary, per-thread IPC, every
 * tracked structure's raw/residual AVF with its protection scheme, and
 * the auxiliary statistics. Structures that never held state are
 * skipped, matching the CSV and table output.
 */
void
printResultJson(const SimResult &r, const ProtectionConfig &prot)
{
    std::printf("{\n");
    std::printf("  \"mix\": %s,\n", jsonStr(r.mixName).c_str());
    std::printf("  \"policy\": %s,\n", jsonStr(r.policyName).c_str());
    std::printf("  \"ipc\": %.6f,\n", r.ipc);
    std::printf("  \"cycles\": %llu,\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  \"instructions\": %llu,\n",
                static_cast<unsigned long long>(r.totalCommitted));
    std::printf("  \"protection\": %s,\n", jsonStr(prot.str()).c_str());

    std::printf("  \"threads\": [");
    for (std::size_t i = 0; i < r.threads.size(); ++i) {
        const auto &t = r.threads[i];
        std::printf("%s\n    {\"benchmark\": %s, \"ipc\": %.6f, "
                    "\"committed\": %llu}",
                    i ? "," : "", jsonStr(t.benchmark).c_str(), t.ipc,
                    static_cast<unsigned long long>(t.committed));
    }
    std::printf("\n  ],\n");

    std::printf("  \"structures\": [");
    bool first = true;
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
            continue;
        std::printf("%s\n    {\"name\": %s, \"scheme\": %s, "
                    "\"avf\": %.6f, \"residual_avf\": %.6f, "
                    "\"occupancy\": %.6f, \"mitf\": %.4f, \"thread_avf\": [",
                    first ? "" : ",", jsonStr(hwStructName(s)).c_str(),
                    jsonStr(protSchemeName(prot.schemeFor(s))).c_str(),
                    r.avf.avf(s), r.avf.residualAvf(s), r.avf.occupancy(s),
                    r.mitf(s));
        for (unsigned tid = 0; tid < r.avf.numThreads(); ++tid)
            std::printf("%s%.6f", tid ? ", " : "",
                        r.avf.threadAvf(s, static_cast<ThreadId>(tid)));
        std::printf("]}");
        first = false;
    }
    std::printf("\n  ],\n");

    std::printf("  \"stats\": {");
    first = true;
    for (const auto &[name, value] : r.stats.all()) {
        std::printf("%s\n    %s: %.6f", first ? "" : ",",
                    jsonStr(name).c_str(), value);
        first = false;
    }
    std::printf("\n  }\n}\n");
}

/**
 * First Ctrl-C asks the campaign to stop dispatching and drain (the
 * journal keeps everything already finished); the second aborts hard.
 * Only async-signal-safe calls here.
 */
std::atomic<bool> interrupted{false};

extern "C" void
onSigint(int)
{
    if (interrupted.exchange(true)) {
        const char hard[] = "\nsmtavf_cli: hard exit\n";
        [[maybe_unused]] auto n = write(STDERR_FILENO, hard, sizeof(hard) - 1);
        killLiveChildren(); // no orphaned --isolate=process simulations
        _exit(130);
    }
    const char soft[] =
        "\nsmtavf_cli: stopping dispatch, draining in-flight runs "
        "(Ctrl-C again to abort)\n";
    [[maybe_unused]] auto n = write(STDERR_FILENO, soft, sizeof(soft) - 1);
}

int
campaignMain(int argc, char **argv)
{
    unsigned jobs = 0;
    std::vector<std::string> mix_names;
    unsigned contexts = 0;
    std::string policy_name = "ICOUNT";
    std::uint64_t instructions = 0;
    std::uint64_t master_seed = 0;
    bool use_master_seed = false;
    bool csv = false;
    unsigned shard = 0;
    unsigned nshards = 0; // 0 = no sharding requested
    std::uint64_t warmup = 0;
    std::uint64_t prat_epoch = 4096;
    std::uint64_t prat_cap = 0;
    bool prat_epoch_set = false, prat_cap_set = false;
    CampaignOptions opt;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(parseNum("--jobs", next()));
            if (jobs == 0)
                die("--jobs must be positive");
        } else if (arg == "--mix") {
            const char *v = next();
            if (!v)
                die("--mix needs a value");
            mix_names.push_back(v);
        } else if (arg == "--contexts") {
            contexts =
                static_cast<unsigned>(parseNum("--contexts", next()));
        } else if (arg == "--policy") {
            const char *v = next();
            if (!v)
                die("--policy needs a value");
            policy_name = v;
        } else if (arg == "--prat-epoch") {
            prat_epoch = parseNum("--prat-epoch", next());
            if (prat_epoch == 0 || prat_epoch > (std::uint64_t{1} << 30))
                die("--prat-epoch must be in [1, 2^30] cycles");
            prat_epoch_set = true;
        } else if (arg == "--prat-cap") {
            prat_cap = parseNum("--prat-cap", next());
            if (prat_cap > (std::uint64_t{1} << 20))
                die("--prat-cap must be at most 2^20 instructions");
            prat_cap_set = true;
        } else if (arg == "--instructions") {
            instructions = parseNum("--instructions", next());
        } else if (arg == "--master-seed") {
            master_seed = parseNum("--master-seed", next());
            use_master_seed = true;
        } else if (arg == "--retries") {
            opt.retries =
                static_cast<unsigned>(parseNum("--retries", next()));
        } else if (arg == "--journal") {
            const char *v = next();
            if (!v)
                die("--journal needs a file name");
            opt.journalPath = v;
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--timeout") {
            opt.softTimeoutSeconds = parseSeconds("--timeout", next());
        } else if (arg == "--isolate") {
            const char *v = next();
            if (!v || !parseIsolateMode(v, opt.isolate))
                die("--isolate wants 'thread' or 'process'");
        } else if (arg == "--runs-per-child") {
            opt.runsPerChild =
                static_cast<unsigned>(parseNum("--runs-per-child", next()));
            if (opt.runsPerChild == 0)
                die("--runs-per-child wants a positive batch size");
        } else if (arg == "--hard-timeout") {
            opt.hardTimeoutSeconds = parseSeconds("--hard-timeout", next());
        } else if (arg == "--child-cpu") {
            opt.childCpuSeconds = parseNum("--child-cpu", next());
        } else if (arg == "--child-mem") {
            opt.childMemoryBytes =
                parseNum("--child-mem", next()) * 1024 * 1024;
        } else if (arg == "--backoff") {
            opt.backoffSeconds = parseSeconds("--backoff", next());
        } else if (arg == "--cancel-check") {
            opt.cancelCheckCycles = parseNum("--cancel-check", next());
        } else if (arg == "--warmup") {
            warmup = parseNum("--warmup", next());
        } else if (arg == "--shared-warmup") {
            opt.sharedWarmup = true;
        } else if (arg == "--checkpoint-dir") {
            const char *v = next();
            if (!v)
                die("--checkpoint-dir needs a directory");
            opt.checkpointDir = v;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--shard") {
            const char *v = next();
            unsigned s = 0, n = 0;
            if (!v || std::sscanf(v, "%u/%u", &s, &n) != 2 || n == 0 ||
                s >= n)
                die("--shard wants I/N with 0 <= I < N, e.g. --shard 0/4");
            shard = s;
            nshards = n;
        } else {
            usage();
            die("unknown campaign option: " + arg);
        }
    }
    if (opt.resume && opt.journalPath.empty())
        die("--resume needs --journal FILE to resume from");
    if (opt.isolate != IsolateMode::Process &&
        (opt.hardTimeoutSeconds > 0.0 || opt.childCpuSeconds > 0 ||
         opt.childMemoryBytes > 0))
        die("--hard-timeout/--child-cpu/--child-mem need --isolate process");
    if (opt.runsPerChild > 1 && opt.isolate != IsolateMode::Process)
        die("--runs-per-child needs --isolate process (thread mode already "
            "reuses workers in-process)");
    if (opt.isolate == IsolateMode::Process && opt.cancelCheckCycles > 0)
        die("--cancel-check is a thread-mode knob; process children are "
            "interrupted by the supervisor");
    if (opt.sharedWarmup && warmup == 0)
        die("--shared-warmup needs --warmup N to share");
    if (!opt.checkpointDir.empty() &&
        !(opt.sharedWarmup && opt.isolate == IsolateMode::Process))
        die("--checkpoint-dir needs --shared-warmup with --isolate process");

    std::vector<FetchPolicyKind> policies;
    if (policy_name == "all" || policy_name == "ALL") {
        policies = allFetchPolicies();
    } else {
        FetchPolicyKind policy;
        if (!parseFetchPolicy(policy_name, policy))
            die("unknown policy: " + policy_name + " (try --list)");
        policies.push_back(policy);
    }

    std::vector<WorkloadMix> mixes;
    if (!mix_names.empty()) {
        for (const auto &name : mix_names)
            mixes.push_back(findMix(name));
    } else {
        for (const auto &m : allMixes())
            if (contexts == 0 || m.contexts == contexts)
                mixes.push_back(m);
    }
    if (mixes.empty())
        die("no mixes selected");

    if ((prat_epoch_set || prat_cap_set) &&
        std::find(policies.begin(), policies.end(),
                  FetchPolicyKind::PRat) == policies.end())
        die("--prat-epoch/--prat-cap tune the PRAT throttle; they need "
            "--policy PRAT (or --policy all)");

    std::vector<Experiment> exps;
    for (const auto &mix : mixes)
        for (auto policy : policies)
            exps.push_back(makeExperiment(mix, policy, instructions));
    for (auto &e : exps) {
        e.warmup = warmup;
        // Inert (and fingerprint-excluded) unless the run's policy is PRAT.
        e.cfg.pratEpoch = prat_epoch;
        e.cfg.pratCap = static_cast<std::uint32_t>(prat_cap);
    }
    if (use_master_seed)
        deriveSeeds(exps, master_seed);
    // Shard after seed derivation: a run's seed depends on its index in
    // the full campaign, so every shard executes exactly the runs an
    // unsharded campaign would — which is what makes the shard journals
    // mergeable (see merge-journals).
    if (nshards > 0) {
        exps = shardExperiments(exps, shard, nshards);
        if (exps.empty())
            die("shard " + std::to_string(shard) + "/" +
                std::to_string(nshards) + " selects no runs");
    }

    // Reject a bad configuration before spinning up the pool: every
    // experiment must pass the same validation a Simulator would apply.
    for (const auto &e : exps)
        if (auto msg = e.cfg.validateMsg(); !msg.empty())
            die("invalid configuration for " + e.label + ": " + msg);

    opt.cancel = &interrupted;
    std::signal(SIGINT, onSigint);

    CampaignRunner pool(jobs);
    std::printf("campaign: %zu runs on %u workers\n", exps.size(),
                pool.jobs());

    auto t0 = std::chrono::steady_clock::now();
    auto report = runTolerant(pool, exps, opt,
                              [](const CampaignProgress &p) {
        if (p.result) {
            std::printf("[%3zu/%zu] %-22s IPC %.3f  %6.2fs%s\n", p.completed,
                        p.total, p.experiment->label.c_str(), p.result->ipc,
                        p.seconds,
                        p.outcome && p.outcome->fromJournal ? "  (journal)"
                                                            : "");
        } else {
            std::printf("[%3zu/%zu] %-22s %s\n", p.completed, p.total,
                        p.experiment->label.c_str(),
                        p.outcome ? runStatusName(p.outcome->status)
                                  : "failed");
        }
        std::fflush(stdout);
    });
    std::signal(SIGINT, SIG_DFL);
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    std::printf("campaign finished in %.2fs\n\n", dt.count());

    if (csv) {
        // campaignCsv keeps every row at full arity: failed/timed-out/
        // quarantined runs get empty metric cells plus the error column
        // instead of a short (ragged) row.
        std::fputs(campaignCsv(exps, report).c_str(), stdout);
    } else {
        std::vector<std::string> header = {"experiment", "IPC"};
        for (auto s : AvfReport::figureStructs())
            header.push_back(hwStructName(s));
        TextTable t(std::move(header));
        for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
            const RunOutcome &o = report.outcomes[i];
            std::vector<std::string> row = {exps[i].label};
            if (o.status == RunStatus::Ok) {
                row.push_back(TextTable::num(o.result.ipc, 3));
                for (auto s : AvfReport::figureStructs())
                    row.push_back(TextTable::pct(o.result.avf.avf(s), 1));
            } else {
                row.push_back(runStatusName(o.status));
                for (std::size_t c = 0; c < AvfReport::figureStructs().size();
                     ++c)
                    row.push_back("-");
            }
            t.addRow(std::move(row));
        }
        std::fputs(t.str().c_str(), stdout);
    }

    if (!report.allOk()) {
        std::fputs("\n", stderr);
        std::fputs(report.failureReport().c_str(), stderr);
        if (!opt.journalPath.empty())
            std::fprintf(stderr,
                         "finished runs are journaled; resume with:\n"
                         "  smtavf_cli campaign ... --journal %s --resume\n",
                         opt.journalPath.c_str());
        return 3;
    }
    return 0;
}

int
protectMain(int argc, char **argv)
{
    ProtectCliOptions po;
    std::string err;
    if (!parseProtectCli(std::vector<std::string>(argv + 2, argv + argc),
                         po, err)) {
        usage();
        die(err);
    }
    if (po.help) {
        usage();
        return 0;
    }

    FetchPolicyKind policy;
    if (!parseFetchPolicy(po.policyName, policy))
        die("unknown policy: " + po.policyName + " (try --list)");

    const auto &mix = findMix(po.mixName);
    auto cfg = table1Config(mix.contexts);
    cfg.fetchPolicy = policy;
    cfg.seed = po.seed;
    cfg.pratEpoch = po.pratEpoch;
    cfg.pratCap = static_cast<std::uint32_t>(po.pratCap);

    ProtectionConfig prot;
    prot.scrubInterval = po.scrubInterval;
    if (!po.schemeName.empty()) {
        ProtScheme s;
        if (!parseProtScheme(po.schemeName, s))
            die("unknown scheme: " + po.schemeName +
                " (none parity secded secded+scrub)");
        prot = uniformProtection(s, po.scrubInterval);
    }
    if (!po.assignSpec.empty()) {
        std::string aerr;
        if (!parseAssignment(po.assignSpec, prot, aerr))
            die("bad --assign: " + aerr);
    }
    cfg.protection = prot;
    if (auto msg = cfg.validateMsg(); !msg.empty())
        die("invalid configuration: " + msg);

    if (po.explore) {
        ProtectionExplorer explorer(cfg, mix, po.instructions, po.depth);
        CampaignRunner pool(po.jobs);
        ExplorationResult result;
        if (po.exploreMode == ExploreMode::Beam) {
            BeamOptions bo;
            bo.beamWidth = po.beamWidth;
            bo.generations = po.generations;
            bo.evalBudget = po.evalBudget;
            if (po.depthSet)
                bo.maxStructures = po.depth;
            bo.scrubLadder =
                ProtectionExplorer::defaultScrubLadder(po.scrubInterval);
            bo.journalPath = po.journalPath;
            bo.resume = po.resume;
            bo.warmup = po.warmup;
            bo.sharedWarmup = po.sharedWarmup;
            result = explorer.exploreBeam(pool, bo);
        } else {
            result = explorer.explore(pool, po.warmup);
        }
        if (po.json) {
            std::fputs(result.json().c_str(), stdout);
        } else if (po.csv) {
            std::fputs(result.csv().c_str(), stdout);
        } else {
            std::fputs("hotspot priority (raw AVF, descending):", stdout);
            for (auto s : result.priority)
                std::printf(" %s", hwStructName(s));
            std::printf("\n\n%llu assignments evaluated (%llu from the "
                        "journal, %llu pruned unsimulated), %zu on the "
                        "Pareto frontier:\n",
                        static_cast<unsigned long long>(result.evaluations),
                        static_cast<unsigned long long>(result.journalHits),
                        static_cast<unsigned long long>(result.prunedCount),
                        result.frontier.size());
            std::fputs(result.table().c_str(), stdout);
            for (const auto &w : result.warnings)
                std::fprintf(stderr, "warning: %s\n", w.c_str());
        }
        return 0;
    }

    SimResult r;
    if (po.warmup > 0) {
        Simulator sim(cfg, mix);
        RunControls rc;
        rc.warmup = po.warmup;
        r = sim.run(po.instructions ? po.instructions
                                    : defaultBudget(mix.contexts),
                    rc);
    } else {
        r = runMix(cfg, mix, po.instructions);
    }
    bool csv = po.csv, json = po.json;
    const auto bits = structureBitCapacities(cfg);
    auto cost = protectionCost(cfg);

    if (json) {
        printResultJson(r, prot);
        return 0;
    }
    if (csv) {
        std::puts("structure,scheme,avf,residual_avf,occupancy,mitf");
        for (std::size_t i = 0; i < numHwStructs; ++i) {
            auto s = static_cast<HwStruct>(i);
            if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
                continue;
            std::printf("%s,%s,%.6f,%.6f,%.6f,%.4f\n", hwStructName(s),
                        protSchemeName(prot.schemeFor(s)), r.avf.avf(s),
                        r.avf.residualAvf(s), r.avf.occupancy(s), r.mitf(s));
        }
        return 0;
    }

    std::printf("%s under %s with %s: IPC %.3f over %llu cycles\n",
                r.mixName.c_str(), r.policyName.c_str(), prot.str().c_str(),
                r.ipc, static_cast<unsigned long long>(r.cycles));
    TextTable t({"structure", "scheme", "AVF", "residual", "occupancy"});
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
            continue;
        t.addRow({hwStructName(s), protSchemeName(prot.schemeFor(s)),
                  TextTable::pct(r.avf.avf(s), 2),
                  TextTable::pct(r.avf.residualAvf(s), 2),
                  TextTable::pct(r.avf.occupancy(s), 2)});
    }
    std::fputs(t.str().c_str(), stdout);
    std::printf("\nprotected %llu of %llu tracked bits\n"
                "area overhead   %5.2f%%\n"
                "energy overhead %5.2f%%\n"
                "SER proxy       %.4f raw -> %.4f residual\n",
                static_cast<unsigned long long>(cost.protectedBits),
                static_cast<unsigned long long>(cost.totalBits),
                100 * cost.areaOverhead, 100 * cost.energyOverhead,
                serProxy(r.avf, bits, false), serProxy(r.avf, bits, true));
    return 0;
}

int
singleMain(int argc, char **argv)
{
    std::string mix_name = "4ctx-mix-A";
    std::string policy_name = "ICOUNT";
    std::uint64_t instructions = 0;
    std::uint64_t seed = 1;
    std::uint64_t replicas = 1;
    std::uint64_t sample = 0;
    std::uint64_t warmup = 0;
    std::uint64_t checkpoint_at = 0;
    std::string checkpoint_out;
    std::string restore_path;
    std::uint64_t avf_interval = 0;
    std::string avf_interval_csv;
    bool iq_partition = false;
    bool csv = false;
    bool json = false;
    bool timeline_csv = false;
    AvfOptions avf;
    bool prewarm = true;
    std::uint64_t prat_epoch = 4096;
    std::uint64_t prat_cap = 0;
    bool prat_epoch_set = false, prat_cap_set = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            std::puts("mixes:");
            for (const auto &m : allMixes())
                std::printf("  %-12s (%u contexts, %s)\n", m.name.c_str(),
                            m.contexts, mixTypeName(m.type));
            std::puts("policies:");
            for (auto kind : allFetchPolicies())
                std::printf("  %s\n", fetchPolicyName(kind));
            return 0;
        } else if (arg == "--table1") {
            std::fputs(table1String(table1Config(4)).c_str(), stdout);
            return 0;
        } else if (arg == "--mix") {
            const char *v = next();
            if (!v)
                die("--mix needs a value");
            mix_name = v;
        } else if (arg == "--policy") {
            const char *v = next();
            if (!v)
                die("--policy needs a value");
            policy_name = v;
        } else if (arg == "--prat-epoch") {
            prat_epoch = parseNum("--prat-epoch", next());
            if (prat_epoch == 0 || prat_epoch > (std::uint64_t{1} << 30))
                die("--prat-epoch must be in [1, 2^30] cycles");
            prat_epoch_set = true;
        } else if (arg == "--prat-cap") {
            prat_cap = parseNum("--prat-cap", next());
            if (prat_cap > (std::uint64_t{1} << 20))
                die("--prat-cap must be at most 2^20 instructions");
            prat_cap_set = true;
        } else if (arg == "--instructions") {
            instructions = parseNum("--instructions", next());
        } else if (arg == "--seed") {
            seed = parseNum("--seed", next());
        } else if (arg == "--replicas") {
            replicas = parseNum("--replicas", next());
            if (replicas == 0)
                die("--replicas must be positive");
        } else if (arg == "--sample") {
            sample = parseNum("--sample", next());
        } else if (arg == "--warmup") {
            warmup = parseNum("--warmup", next());
        } else if (arg == "--checkpoint-at") {
            checkpoint_at = parseNum("--checkpoint-at", next());
            if (checkpoint_at == 0)
                die("--checkpoint-at must be positive");
        } else if (arg == "--checkpoint-out") {
            const char *v = next();
            if (!v)
                die("--checkpoint-out needs a file name");
            checkpoint_out = v;
        } else if (arg == "--restore") {
            const char *v = next();
            if (!v)
                die("--restore needs a file name");
            restore_path = v;
        } else if (arg == "--avf-interval") {
            avf_interval = parseNum("--avf-interval", next());
            if (avf_interval == 0)
                die("--avf-interval must be positive");
        } else if (arg == "--avf-interval-csv") {
            const char *v = next();
            if (!v)
                die("--avf-interval-csv needs a file name");
            avf_interval_csv = v;
        } else if (arg == "--iq-partition") {
            iq_partition = true;
        } else if (arg == "--no-dead-code") {
            avf.deadCodeAnalysis = false;
        } else if (arg == "--no-wrong-path") {
            avf.wrongPathModel = false;
        } else if (arg == "--per-line-cache") {
            avf.perByteCacheAvf = false;
        } else if (arg == "--no-prewarm") {
            prewarm = false;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--timeline-csv") {
            timeline_csv = true;
        } else {
            usage();
            die("unknown option: " + arg);
        }
    }

    FetchPolicyKind policy;
    if (!parseFetchPolicy(policy_name, policy))
        die("unknown policy: " + policy_name + " (try --list)");

    if ((prat_epoch_set || prat_cap_set) &&
        policy != FetchPolicyKind::PRat)
        die("--prat-epoch/--prat-cap tune the PRAT throttle; they need "
            "--policy PRAT");

    const auto &mix = findMix(mix_name);
    auto cfg = table1Config(mix.contexts);
    cfg.fetchPolicy = policy;
    cfg.seed = seed;
    cfg.pratEpoch = prat_epoch;
    cfg.pratCap = static_cast<std::uint32_t>(prat_cap);
    cfg.iqPartitioned = iq_partition;
    cfg.avf = avf;
    cfg.prewarmCaches = prewarm;
    if (timeline_csv && sample == 0)
        sample = 5000;
    cfg.avfSampleCycles = sample;
    if (auto msg = cfg.validateMsg(); !msg.empty())
        die("invalid configuration: " + msg);

    const bool controls = warmup > 0 || checkpoint_at > 0 ||
                          !restore_path.empty() || avf_interval > 0;
    if (!checkpoint_out.empty() && checkpoint_at == 0)
        die("--checkpoint-out needs --checkpoint-at N");
    if (checkpoint_at > 0 && checkpoint_out.empty())
        die("--checkpoint-at needs --checkpoint-out FILE");
    if (!restore_path.empty() && warmup > 0)
        die("--warmup cannot follow --restore: the restored state already "
            "fixes the measurement boundary");
    if (controls && replicas > 1)
        die("--replicas cannot combine with "
            "--warmup/--checkpoint-at/--restore/--avf-interval");
    if (!avf_interval_csv.empty() && avf_interval == 0)
        die("--avf-interval-csv needs --avf-interval N");

    if (replicas > 1) {
        auto runs = runMixReplicated(cfg, mix,
                                     static_cast<unsigned>(replicas),
                                     instructions);
        auto perf = ipcStats(runs);
        std::printf("%s under %s, %llu seeds: IPC %.3f +/- %.3f\n",
                    mix.name.c_str(), fetchPolicyName(policy),
                    static_cast<unsigned long long>(replicas), perf.mean,
                    perf.std);
        std::puts("structure  mean AVF  +/-");
        for (auto s : AvfReport::figureStructs()) {
            auto st = avfStats(runs, s);
            std::printf("%-9s  %6.2f%%  %5.2f%%\n", hwStructName(s),
                        100 * st.mean, 100 * st.std);
        }
        return 0;
    }

    SimResult r;
    if (controls) {
        std::uint64_t budget =
            instructions ? instructions : defaultBudget(mix.contexts);
        Simulator sim(cfg, mix);
        RunControls rc;
        rc.warmup = warmup;
        rc.checkpointAt = checkpoint_at;
        rc.checkpointOut = checkpoint_out;
        rc.avfInterval = avf_interval;
        if (!restore_path.empty()) {
            sim.restore(loadCheckpointFile(restore_path));
            // --instructions stays the run's *total* commit target, so a
            // restored run reports exactly what the uninterrupted run
            // would; only the remainder is simulated.
            if (budget <= sim.restoredCommitted())
                die("--instructions " + std::to_string(budget) +
                    " does not exceed the checkpoint's committed count (" +
                    std::to_string(sim.restoredCommitted()) + ")");
            budget -= sim.restoredCommitted();
        }
        r = sim.run(budget, rc);
    } else {
        r = runMix(cfg, mix, instructions);
    }

    if (json) {
        printResultJson(r, cfg.protection);
    } else if (csv) {
        std::puts("structure,avf,occupancy,mitf");
        for (std::size_t i = 0; i < numHwStructs; ++i) {
            auto s = static_cast<HwStruct>(i);
            if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
                continue;
            std::printf("%s,%.6f,%.6f,%.4f\n", hwStructName(s),
                        r.avf.avf(s), r.avf.occupancy(s), r.mitf(s));
        }
    } else {
        std::printf("%s under %s: IPC %.3f over %llu cycles "
                    "(%llu instructions)\n",
                    r.mixName.c_str(), r.policyName.c_str(), r.ipc,
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.totalCommitted));
        for (const auto &t : r.threads)
            std::printf("  %-10s IPC %.3f\n", t.benchmark.c_str(), t.ipc);
        std::puts("");
        std::fputs(r.avf.str().c_str(), stdout);
        std::puts("");
        for (const auto &[name, value] : r.stats.all())
            std::printf("  %-24s %.4f\n", name.c_str(), value);
    }

    if (avf_interval > 0 && r.avfIntervals) {
        if (!avf_interval_csv.empty() && avf_interval_csv != "-") {
            std::FILE *f = std::fopen(avf_interval_csv.c_str(), "w");
            if (!f)
                die("cannot write " + avf_interval_csv);
            std::fputs(r.avfIntervals->csv().c_str(), f);
            std::fclose(f);
        } else {
            std::puts("");
            std::fputs(r.avfIntervals->csv().c_str(), stdout);
        }
    }

    if (timeline_csv && r.timeline) {
        std::puts("\nwindow,IQ,Reg,FU,ROB,DL1_data,DL1_tag");
        for (std::size_t w = 0; w < r.timeline->windows(); ++w) {
            std::printf(
                "%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n", w,
                r.timeline->windowAvf(HwStruct::IQ, w),
                r.timeline->windowAvf(HwStruct::RegFile, w),
                r.timeline->windowAvf(HwStruct::FU, w),
                r.timeline->windowAvf(HwStruct::ROB, w),
                r.timeline->windowAvf(HwStruct::Dl1Data, w),
                r.timeline->windowAvf(HwStruct::Dl1Tag, w));
        }
    }
    return 0;
}

int
mergeJournalsMain(int argc, char **argv)
{
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--out") {
            if (i + 1 >= argc)
                die("--out needs a file name");
            out_path = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            die("unknown merge-journals option: " + arg);
        } else {
            inputs.push_back(arg);
        }
    }
    if (out_path.empty())
        die("merge-journals needs --out FILE");
    if (inputs.empty())
        die("merge-journals needs at least one input journal");

    // CRC-verify every input before merging: silently folding a corrupt
    // shard into a resume journal would launder bad bytes into results.
    std::vector<std::string> corruption;
    std::size_t n = mergeJournals(inputs, out_path, &corruption);
    if (!corruption.empty()) {
        std::fprintf(stderr,
                     "smtavf_cli: refusing to merge: %zu corrupt "
                     "record%s\n",
                     corruption.size(), corruption.size() == 1 ? "" : "s");
        for (const auto &c : corruption)
            std::fprintf(stderr, "  %s\n", c.c_str());
        std::fprintf(stderr,
                     "repair damaged tails with: smtavf_cli journal fsck "
                     "--repair FILE\n");
        return 3;
    }
    std::printf("merged %zu journal%s into %s: %zu unique run%s\n",
                inputs.size(), inputs.size() == 1 ? "" : "s",
                out_path.c_str(), n, n == 1 ? "" : "s");
    return 0;
}

int
journalFsckMain(int argc, char **argv)
{
    bool repair = false;
    std::string path;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--repair") {
            repair = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            die("unknown journal fsck option: " + arg);
        } else if (path.empty()) {
            path = arg;
        } else {
            die("journal fsck checks exactly one journal");
        }
    }
    if (path.empty())
        die("journal fsck needs a journal file");

    JournalFsck fsck = fsckJournal(path);
    std::printf("%s: %zu run record%s, %zu comment line%s\n", path.c_str(),
                fsck.records, fsck.records == 1 ? "" : "s", fsck.comments,
                fsck.comments == 1 ? "" : "s");
    if (fsck.clean()) {
        std::printf("journal is clean\n");
        return 0;
    }
    for (const auto &iss : fsck.issues)
        std::printf("  line %zu @ byte %llu: %s\n", iss.line,
                    static_cast<unsigned long long>(iss.offset),
                    iss.reason.c_str());
    if (!fsck.tailOnly) {
        std::printf("damage is not confined to the tail; --repair cannot "
                    "fix this journal\n");
        return 3;
    }
    if (!repair) {
        std::printf("damaged tail (crash mid-append); rerun with --repair "
                    "to truncate at byte %llu\n",
                    static_cast<unsigned long long>(fsck.truncateOffset));
        return 3;
    }
    if (!repairJournalTail(path, fsck))
        die("failed to truncate " + path);
    std::printf("truncated damaged tail at byte %llu; %zu intact "
                "record%s kept\n",
                static_cast<unsigned long long>(fsck.truncateOffset),
                fsck.records, fsck.records == 1 ? "" : "s");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Redirect fatal/panic into exceptions so a config mistake deep in
    // construction surfaces as a clean message + exit code instead of
    // std::exit mid-library. runTolerant() installs its own redirect for
    // campaign workers; this one covers single-run mode.
    setLoggingThrows(true);
    try {
        if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
            return campaignMain(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "protect") == 0)
            return protectMain(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "merge-journals") == 0)
            return mergeJournalsMain(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "journal") == 0) {
            if (argc > 2 && std::strcmp(argv[2], "fsck") == 0)
                return journalFsckMain(argc, argv);
            usage();
            die("unknown journal subcommand (try: journal fsck FILE)");
        }
        // `run` is an explicit alias of the default single-run mode, so
        // checkpoint examples read naturally: smtavf_cli run --restore F.
        if (argc > 1 && std::strcmp(argv[1], "run") == 0)
            return singleMain(argc - 1, argv + 1);
        return singleMain(argc, argv);
    } catch (const LivelockError &e) {
        std::fprintf(stderr, "smtavf_cli: %s\n", e.what());
        return 1;
    } catch (const SimulationError &e) {
        std::fprintf(stderr, "smtavf_cli: %s\n", e.what());
        return 1;
    } catch (const CheckpointError &e) {
        // Corrupt, truncated, or configuration-incompatible checkpoint:
        // a distinct exit code so scripted restore flows can tell "bad
        // checkpoint" from "bad flags" or "sim blew up".
        std::fprintf(stderr, "smtavf_cli: %s\n", e.what());
        return 4;
    } catch (const SimError &e) {
        // SMTAVF_FATAL/PANIC: configuration or usage problem.
        std::fprintf(stderr, "smtavf_cli: %s\n", e.message.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "smtavf_cli: unexpected error: %s\n", e.what());
        return 1;
    }
}
