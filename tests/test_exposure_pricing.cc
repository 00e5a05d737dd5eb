/**
 * @file
 * Exposure-profile pricing against simulation. A protection candidate
 * priced from one profiled baseline run (avf/exposure.hh,
 * priceProtection()) must be byte-identical to simulating it:
 *
 *  - per run: serializeRun() bytes over every non-PRAT fetch policy x
 *    {2, 4, 8} contexts x {no warmup, per-run warmup, restored warmup
 *    checkpoint} x randomized assignments covering every scheme, scrub
 *    overrides and scrub-ladder rungs;
 *  - per search: explore()/exploreBeam() CSVs and journal records equal
 *    those of a search that simulates every candidate, fresh and resumed;
 *  - where pricing is unsound (PRAT) or unproven (an incomplete profile),
 *    candidates simulate.
 *
 * Labelled `tsan`: the pricing path dispatches on the campaign pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "protect/explorer.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "test_util.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

/** Scrub periods the randomized assignments draw from. */
const std::vector<Cycle> kLadder = {16, 100, 1000, 10000, 100000};

/** Variants per structure: none, parity, secded, global scrub, rungs. */
constexpr std::size_t kFixedVariants = 4;

/** A random assignment; @p used counts the variants drawn. */
ProtectionConfig
randomAssignment(Rng &rng, std::vector<unsigned> &used)
{
    ProtectionConfig p;
    p.scrubInterval = kLadder[rng.uniform(kLadder.size())];
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        const auto s = static_cast<HwStruct>(i);
        const auto v = rng.uniform(kFixedVariants + kLadder.size());
        ++used[v];
        switch (v) {
          case 0: break;
          case 1: p.assign(s, ProtScheme::Parity); break;
          case 2: p.assign(s, ProtScheme::Secded); break;
          case 3: p.assign(s, ProtScheme::SecdedScrub); break;
          default: p.assignScrub(s, kLadder[v - kFixedVariants]); break;
        }
    }
    return p;
}

enum class WarmMode { None, PerRun, Restored };

const char *
warmModeName(WarmMode m)
{
    switch (m) {
      case WarmMode::None: return "none";
      case WarmMode::PerRun: return "per-run";
      default: return "restored";
    }
}

/** One simulation of (@p cfg, @p mix) in warmup mode @p mode. */
SimResult
simulate(const MachineConfig &cfg, const WorkloadMix &mix, WarmMode mode,
         const Checkpoint &warm, bool record)
{
    constexpr std::uint64_t kBudget = 1500;
    Simulator sim(cfg, mix);
    RunControls rc;
    rc.recordExposure = record;
    if (mode == WarmMode::PerRun)
        rc.warmup = 1500;
    if (mode == WarmMode::Restored)
        sim.restore(warm);
    return sim.run(kBudget, rc);
}

TEST(ExposurePricing, SerializedRunsMatchSimulationAcrossMatrix)
{
    struct Cell
    {
        FetchPolicyKind policy;
        unsigned contexts;
        WarmMode mode;
    };
    std::vector<Cell> cells;
    for (auto policy : allFetchPolicies()) {
        if (policy == FetchPolicyKind::PRat)
            continue;
        for (unsigned ctx : {2u, 4u, 8u})
            for (auto mode :
                 {WarmMode::None, WarmMode::PerRun, WarmMode::Restored})
                cells.push_back({policy, ctx, mode});
    }
    ASSERT_EQ(cells.size(), 9u * 3u * 3u);

    constexpr unsigned kAssignments = 3;
    const std::size_t variants = kFixedVariants + kLadder.size();
    std::vector<std::string> failures(cells.size());
    std::vector<std::vector<unsigned>> used(
        cells.size(), std::vector<unsigned>(variants, 0));

    CampaignRunner pool(4);
    pool.forEach(cells.size(), [&](std::size_t c) {
        const Cell &cell = cells[c];
        const std::string mix_name = std::to_string(cell.contexts) +
                                     (cell.contexts == 4 ? "ctx-mem-A"
                                                         : "ctx-mix-A");
        const WorkloadMix &mix = findMix(mix_name);
        MachineConfig cfg = table1Config(cell.contexts);
        cfg.fetchPolicy = cell.policy;
        cfg.seed = splitSeed(0x5eed, c);
        Checkpoint warm;
        if (cell.mode == WarmMode::Restored)
            warm = Simulator(cfg, mix).captureWarmupCheckpoint(1500);

        const SimResult base = simulate(cfg, mix, cell.mode, warm, true);
        if (!base.exposure || !base.exposure->complete() ||
            base.exposure->keys() == 0) {
            failures[c] = "baseline profile missing or incomplete";
            return;
        }
        Rng rng(splitSeed(0xa551, c));
        for (unsigned k = 0; k < kAssignments; ++k) {
            MachineConfig prot = cfg;
            prot.protection = randomAssignment(rng, used[c]);
            const SimResult real =
                simulate(prot, mix, cell.mode, warm, false);
            const SimResult priced = priceProtection(base, prot.protection);
            if (serializeRun(1, real) != serializeRun(1, priced)) {
                failures[c] = "assignment " + prot.protection.str() +
                              "\n  simulated: " + serializeRun(1, real) +
                              "\n  priced:    " + serializeRun(1, priced);
                return;
            }
        }
    });

    std::vector<unsigned> total(variants, 0);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        EXPECT_EQ(failures[c], "")
            << fetchPolicyName(cells[c].policy) << " "
            << cells[c].contexts << "ctx warmup "
            << warmModeName(cells[c].mode);
        for (std::size_t v = 0; v < variants; ++v)
            total[v] += used[c][v];
    }
    // Every scheme, the global scrub period and every ladder rung priced.
    for (std::size_t v = 0; v < variants; ++v)
        EXPECT_GT(total[v], 0u) << "variant " << v << " never drawn";
}

TEST(ExposurePricing, ProfileMatchesLedgerTalliesAndDropIsRefused)
{
    MachineConfig cfg = table1Config(4);
    const WorkloadMix &mix = findMix("4ctx-mix-A");
    Simulator sim(cfg, mix);
    RunControls rc;
    rc.recordExposure = true;
    rc.warmup = 2000;
    SimResult base = sim.run(3000, rc);
    ASSERT_TRUE(base.exposure);
    ASSERT_TRUE(base.exposure->complete());
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        const auto s = static_cast<HwStruct>(i);
        EXPECT_EQ(base.exposure->aceBitCycles(s),
                  sim.ledger().aceBitCycles(s))
            << hwStructName(s);
    }
    // Unprotected pricing is the measured run, split for split.
    const auto none = base.exposure->price(ProtectionConfig{});
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        const auto s = static_cast<HwStruct>(i);
        EXPECT_EQ(none[i].covered, 0u);
        EXPECT_EQ(none[i].residual, sim.ledger().aceBitCycles(s));
    }

    // A profile missing one booking fails the identity and refuses to
    // price: the explorer simulates candidates instead.
    auto dropped = std::const_pointer_cast<ExposureProfile>(base.exposure);
    dropped->debugDropEntry();
    EXPECT_FALSE(base.exposure->complete());
    ThrowGuard guard;
    EXPECT_THROW(priceProtection(base, uniformProtection(ProtScheme::Secded)),
                 SimError);
}

TEST(ExposurePricing, MidRunRestoreLeavesProfileIncomplete)
{
    // A mid-run (non-warmup) checkpoint carries tallies booked before the
    // profile existed: the completeness identity must catch it.
    MachineConfig cfg = table1Config(2);
    const WorkloadMix &mix = findMix("2ctx-mix-A");
    Checkpoint mid;
    {
        Simulator sim(cfg, mix);
        RunControls rc;
        rc.checkpointAt = 2000;
        rc.checkpointCapture = &mid;
        sim.run(4000, rc);
    }
    Simulator resumed(cfg, mix);
    resumed.restore(mid);
    RunControls rc;
    rc.recordExposure = true;
    SimResult r = resumed.run(2000, rc);
    ASSERT_TRUE(r.exposure);
    EXPECT_TRUE(r.exposure->sealed());
    EXPECT_FALSE(r.exposure->complete());
}

// ------------------------------------------------------- explorer level

constexpr std::uint64_t kSearchBudget = 3000;

MachineConfig
searchConfig(FetchPolicyKind policy = FetchPolicyKind::Icount)
{
    MachineConfig cfg = table1Config(2);
    cfg.fetchPolicy = policy;
    cfg.seed = 11;
    return cfg;
}

BeamOptions
searchOptions(std::uint64_t warmup, bool shared)
{
    BeamOptions opt;
    opt.beamWidth = 3;
    opt.generations = 2;
    opt.maxStructures = 4;
    opt.warmup = warmup;
    opt.sharedWarmup = shared;
    return opt;
}

/** The search that simulates every candidate (the reference). */
BeamOptions
forced(BeamOptions opt)
{
    opt.runFn = [](const Experiment &e, std::size_t) {
        return runExperiment(e);
    };
    return opt;
}

/** A journal's `run` records, sorted (workers append in any order). */
std::vector<std::string>
runRecords(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);)
        if (line.rfind("run ", 0) == 0)
            out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
}

/** Instructions simulated process-wide while @p fn runs. */
template <class Fn>
std::uint64_t
simulatedBy(Fn &&fn)
{
    const std::uint64_t before = simulatedInstructionCounter().load();
    fn();
    return simulatedInstructionCounter().load() - before;
}

/**
 * Bound on what one measured window commits beyond its budget: the
 * instructions in flight when a drain gates fetch, plus one cycle's
 * commit overshoot at each boundary.
 */
std::uint64_t
drainSlack(const MachineConfig &cfg)
{
    return std::uint64_t{cfg.contexts} * (cfg.robSize + cfg.fetchQueueSize) +
           2 * cfg.commitWidth;
}

TEST(ExplorerPricing, BeamMatchesForcedSimulationCsvAndJournal)
{
    const auto &mix = findMix("2ctx-mix-A");
    ProtectionExplorer explorer(searchConfig(), mix, kSearchBudget);
    CampaignRunner pool(3);
    struct Case
    {
        std::uint64_t warmup;
        bool shared;
    };
    for (Case c : {Case{0, false}, Case{2000, false}, Case{2000, true}}) {
        SCOPED_TRACE("warmup " + std::to_string(c.warmup) +
                     (c.shared ? " shared" : ""));
        const std::string priced_path =
            ::testing::TempDir() + "pricing-priced.journal";
        const std::string forced_path =
            ::testing::TempDir() + "pricing-forced.journal";
        std::remove(priced_path.c_str());
        std::remove(forced_path.c_str());

        BeamOptions opt = searchOptions(c.warmup, c.shared);
        opt.journalPath = priced_path;
        ExplorationResult priced;
        const std::uint64_t instrs =
            simulatedBy([&] { priced = explorer.exploreBeam(pool, opt); });
        BeamOptions ref = forced(searchOptions(c.warmup, c.shared));
        ref.journalPath = forced_path;
        const ExplorationResult simulated = explorer.exploreBeam(pool, ref);

        EXPECT_GT(priced.evaluations, 10u);
        EXPECT_EQ(priced.csv(), simulated.csv());
        EXPECT_EQ(priced.json(), simulated.json());
        const auto records = runRecords(priced_path);
        EXPECT_EQ(records.size(), priced.evaluations + 1);
        EXPECT_EQ(records, runRecords(forced_path));
        // Only the baseline (and its warmup) simulated.
        EXPECT_LE(instrs,
                  c.warmup + kSearchBudget + drainSlack(searchConfig()));
        std::remove(priced_path.c_str());
        std::remove(forced_path.c_str());
    }
}

TEST(ExplorerPricing, PrefixMatchesObservedSimulation)
{
    // explore() has no runFn seam; an AVF timeline turns pricing off, and
    // changes nothing the exploration reports.
    const auto &mix = findMix("2ctx-cpu-A");
    MachineConfig observed = searchConfig();
    observed.avfSampleCycles = 500;
    CampaignRunner pool(2);
    for (std::uint64_t warmup : {0ull, 1500ull}) {
        SCOPED_TRACE("warmup " + std::to_string(warmup));
        ProtectionExplorer explorer(searchConfig(), mix, kSearchBudget);
        ProtectionExplorer reference(observed, mix, kSearchBudget);
        ExplorationResult priced;
        const std::uint64_t priced_instrs =
            simulatedBy([&] { priced = explorer.explore(pool, warmup); });
        ExplorationResult simulated;
        const std::uint64_t simulated_instrs = simulatedBy(
            [&] { simulated = reference.explore(pool, warmup); });
        EXPECT_EQ(priced.csv(), simulated.csv());
        EXPECT_LE(priced_instrs,
                  warmup + kSearchBudget + drainSlack(searchConfig()));
        EXPECT_GE(simulated_instrs,
                  (priced.evaluations + 1) * kSearchBudget);
    }
}

TEST(ExplorerPricing, ResumeFromSimulatedJournalReplaysIdentically)
{
    const auto &mix = findMix("2ctx-mix-A");
    ProtectionExplorer explorer(searchConfig(), mix, kSearchBudget);
    CampaignRunner pool(1); // journal order = submission order
    const std::string full = ::testing::TempDir() + "pricing-full.journal";
    std::remove(full.c_str());
    BeamOptions write = forced(searchOptions(0, false));
    write.evalBudget = 14;
    write.journalPath = full;
    const ExplorationResult fresh = explorer.exploreBeam(pool, write);
    ASSERT_EQ(fresh.evaluations, 14u);

    /** Copy the baseline and the first @p keep candidate records. */
    auto truncated = [&](const std::string &path, std::size_t keep) {
        std::ifstream in(full);
        std::ofstream out(path);
        std::size_t kept = 0;
        for (std::string line; kept <= keep && std::getline(in, line);)
            if (line.rfind("run v3 ", 0) == 0) {
                out << line << '\n';
                ++kept;
            }
    };

    for (std::size_t keep : {std::size_t{14}, std::size_t{5}}) {
        SCOPED_TRACE("journal keeps " + std::to_string(keep) +
                     " candidates");
        const std::string a = ::testing::TempDir() + "pricing-a.journal";
        const std::string b = ::testing::TempDir() + "pricing-b.journal";
        truncated(a, keep);
        truncated(b, keep);

        BeamOptions priced_opt = searchOptions(0, false);
        priced_opt.evalBudget = 14;
        priced_opt.journalPath = a;
        priced_opt.resume = true;
        ExplorationResult priced;
        const std::uint64_t instrs = simulatedBy(
            [&] { priced = explorer.exploreBeam(pool, priced_opt); });

        BeamOptions ref = forced(searchOptions(0, false));
        ref.evalBudget = 14;
        ref.journalPath = b;
        ref.resume = true;
        const ExplorationResult simulated = explorer.exploreBeam(pool, ref);

        EXPECT_EQ(priced.csv(), simulated.csv());
        EXPECT_EQ(priced.json(), simulated.json());
        EXPECT_EQ(priced.journalHits, keep);
        EXPECT_EQ(runRecords(a), runRecords(b));
        if (keep == 14) {
            // Everything replays: the journaled baseline is not simulated.
            EXPECT_EQ(instrs, 0u);
        } else {
            // Candidates are missing: the baseline simulates once more,
            // unjournaled, and prices them.
            EXPECT_GE(instrs, kSearchBudget);
            EXPECT_LE(instrs, kSearchBudget + drainSlack(searchConfig()));
            EXPECT_EQ(runRecords(a).size(), fresh.evaluations + 1);
        }
        std::remove(a.c_str());
        std::remove(b.c_str());
    }
    std::remove(full.c_str());
}

TEST(ExplorerPricing, PratSimulatesEveryCandidate)
{
    // PRAT's throttle reads the assignment, so a candidate's run differs
    // from the baseline's: nothing may be priced.
    const auto &mix = findMix("2ctx-mix-A");
    ProtectionExplorer explorer(searchConfig(FetchPolicyKind::PRat), mix,
                                kSearchBudget);
    CampaignRunner pool(2);
    BeamOptions opt = searchOptions(0, false);
    opt.generations = 1;
    ExplorationResult result;
    const std::uint64_t instrs =
        simulatedBy([&] { result = explorer.exploreBeam(pool, opt); });
    ASSERT_GT(result.evaluations, 0u);
    EXPECT_GE(instrs, (result.evaluations + 1) * kSearchBudget);
}

/**
 * The shared-warmup gate: with candidates priced, a per-run-warmup and a
 * shared-warmup search each simulate exactly one warmup and one measured
 * window (plus drain slack), and report the same frontier.
 */
TEST(ExplorerPricing, SharedAndPerRunWarmupSimulateOneWindow)
{
    constexpr std::uint64_t kWarmup = 4000;
    const auto &mix = findMix("2ctx-mix-A");
    ProtectionExplorer explorer(searchConfig(), mix, kSearchBudget,
                                /*max_depth=*/3);
    CampaignRunner pool(4);
    ExplorationResult per_run, shared;
    const std::uint64_t per_run_instrs = simulatedBy([&] {
        per_run = explorer.exploreBeam(pool, searchOptions(kWarmup, false));
    });
    const std::uint64_t shared_instrs = simulatedBy([&] {
        shared = explorer.exploreBeam(pool, searchOptions(kWarmup, true));
    });
    EXPECT_EQ(per_run.csv(), shared.csv());
    EXPECT_GT(per_run.evaluations, 10u);
    for (std::uint64_t instrs : {per_run_instrs, shared_instrs}) {
        EXPECT_GE(instrs, kWarmup + kSearchBudget);
        EXPECT_LE(instrs,
                  kWarmup + kSearchBudget + drainSlack(searchConfig()));
    }
}

} // namespace
} // namespace smtavf
