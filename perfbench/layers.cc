/**
 * @file
 * Per-layer probes of the traced run (see layers.hh).
 */

#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "branch/predictor.hh"
#include "ckpt/checkpoint.hh"
#include "mem/hierarchy.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace perfbench
{

using namespace smtavf;

namespace
{

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** The simulator's own pre-warm, applied to a stand-alone hierarchy. */
void
prewarm(MemHierarchy &hier, const MachineConfig &cfg,
        const std::vector<std::unique_ptr<StreamGenerator>> &gens)
{
    auto fill_lines = [](Cache &c, ThreadId tid, Addr base,
                         std::uint64_t size) {
        for (Addr a = base; a < base + size; a += c.config().lineBytes)
            c.fill(a, tid, 0);
    };
    auto fill_pages = [](Tlb &t, ThreadId tid, Addr base, std::uint64_t size,
                         std::uint64_t max_pages) {
        const std::uint64_t pages =
            std::min(size / t.config().pageBytes + 1, max_pages);
        for (std::uint64_t p = 0; p < pages; ++p)
            t.prefill(base + p * t.config().pageBytes, tid);
    };
    const std::uint64_t l2_share = cfg.mem.l2.sizeBytes / cfg.contexts;
    const std::uint64_t dtlb_share = cfg.mem.dtlb.entries / cfg.contexts;
    const std::uint64_t itlb_share = cfg.mem.itlb.entries / cfg.contexts;
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        const auto tid = static_cast<ThreadId>(t);
        const auto h = gens[t]->prewarmHints();
        fill_lines(hier.il1(), tid, h.code.base, h.code.size);
        fill_lines(hier.l2(), tid, h.code.base, h.code.size);
        fill_lines(hier.dl1(), tid, h.hot.base, h.hot.size);
        fill_lines(hier.l2(), tid, h.hot.base,
                   std::min(h.hot.size, l2_share));
        fill_lines(hier.l2(), tid, h.warm.base,
                   std::min(h.warm.size, l2_share));
        fill_pages(hier.itlb(), tid, h.code.base, h.code.size, itlb_share);
        fill_pages(hier.dtlb(), tid, h.hot.base, h.hot.size,
                   dtlb_share / 2 + 1);
        fill_pages(hier.dtlb(), tid, h.warm.base, h.warm.size,
                   dtlb_share / 2 + 1);
    }
}

/** One pass of probeSimulator(); returns the traced window's seconds. */
double
probeOnce(const SimProbe &p, Tracer &tr, Tally &tally, Values &out)
{
    Checkpoint ck;
    {
        std::unique_ptr<Simulator> warm;
        {
            Tracer::Scope s(tr, "sim.construct");
            warm = std::make_unique<Simulator>(p.cfg, p.mix);
        }
        out["sim.construct_ms"] = tr.lastSeconds("sim.construct") * 1e3;
        Tracer::Scope s(tr, "sim.warmup");
        ck = warm->captureWarmupCheckpoint(p.warmup);
    }
    out["sim.warmup_s"] = tr.lastSeconds("sim.warmup");

    std::string bytes;
    {
        Tracer::Scope s(tr, "ckpt.encode");
        bytes = encodeCheckpoint(ck);
    }
    const double mb = static_cast<double>(bytes.size()) / 1e6;
    out["ckpt.bytes"] = static_cast<double>(bytes.size());
    out["ckpt.encode_mb_per_s"] = mb / tr.lastSeconds("ckpt.encode");
    Checkpoint decoded;
    {
        Tracer::Scope s(tr, "ckpt.decode");
        decoded = decodeCheckpoint(bytes);
    }
    out["ckpt.decode_mb_per_s"] = mb / tr.lastSeconds("ckpt.decode");
    tally.check(decoded.payload == ck.payload &&
                    decoded.configFingerprint == ck.configFingerprint,
                0, "checkpoint decode(encode(x)) != x");

    std::unique_ptr<Simulator> sim;
    {
        Tracer::Scope s(tr, "sim.construct");
        sim = std::make_unique<Simulator>(p.cfg, p.mix);
    }
    {
        Tracer::Scope s(tr, "ckpt.restore");
        sim->restore(decoded);
    }
    out["ckpt.restore_ms"] = tr.lastSeconds("ckpt.restore") * 1e3;

    // The measured window, one SmtCore::tick per timed call. run() then
    // finds its commit target already reached and only finalizes, so the
    // result is the untraced window's, bit for bit.
    SmtCore &core = sim->core();
    const std::uint64_t target = sim->restoredCommitted() + p.budget;
    const std::uint64_t fetched0 = core.fetchedInstrs();
    const std::uint64_t committed0 = core.totalCommitted();
    const Cycle cycle0 = core.now();
    std::vector<double> tick_ns;
    tick_ns.reserve(p.budget);
    double iq_sum = 0.0, rob_sum = 0.0;
    const double iq_cap = core.issueQueue().capacity();
    const double rob_cap =
        static_cast<double>(core.rob(0).capacity()) * p.cfg.contexts;
    const auto window0 = Clock::now();
    {
        Tracer::Scope s(tr, "core.tick");
        while (core.totalCommitted() < target) {
            const auto t0 = Clock::now();
            core.tick();
            tick_ns.push_back(nsBetween(t0, Clock::now()));
            iq_sum += static_cast<double>(core.issueQueue().size());
            for (unsigned t = 0; t < p.cfg.contexts; ++t)
                rob_sum += static_cast<double>(
                    core.rob(static_cast<ThreadId>(t)).size());
        }
    }
    const double ticks = static_cast<double>(tick_ns.size());
    const double committed =
        static_cast<double>(core.totalCommitted() - committed0);
    out["core.tick_ns_p50"] = quantile(tick_ns, 0.5);
    out["core.tick_ns_p99"] = quantile(tick_ns, 0.99);
    out["core.ipc"] = committed / static_cast<double>(core.now() - cycle0);
    out["core.iq_occupancy"] = iq_sum / (ticks * iq_cap);
    out["core.rob_occupancy"] = rob_sum / (ticks * rob_cap);
    out["core.useful_fetch_frac"] =
        committed / static_cast<double>(core.fetchedInstrs() - fetched0);

    SimResult r;
    {
        Tracer::Scope s(tr, "sim.run");
        r = sim->run(p.budget);
    }
    const double traced_window = secondsSince(window0);
    if (!p.expectRecord.empty()) {
        Experiment e{"probe", p.cfg, p.mix, p.budget, p.warmup};
        tally.check(serializeRun(experimentFingerprint(e), r) ==
                        p.expectRecord,
                    0, "traced window result differs from the untraced one");
    }

    double window = p.untracedWindowSeconds;
    if (window <= 0.0) {
        Simulator plain(p.cfg, p.mix);
        plain.restore(decoded);
        const auto t0 = Clock::now();
        plain.run(p.budget);
        window = secondsSince(t0);
    }
    out["sim.host_ns_per_cycle"] =
        window * 1e9 / static_cast<double>(r.cycles);

    std::vector<double> reset_us;
    for (int i = 0; i < 5 && sim->canResetTo(p.cfg, p.mix); ++i) {
        Tracer::Scope s(tr, "sim.reset");
        sim->reset(p.cfg, p.mix);
        reset_us.push_back(s.seconds() * 1e6);
    }
    out["sim.reset_us"] = median(reset_us);

    out["avf.iq"] = r.avf.avf(HwStruct::IQ);
    out["avf.rob"] = r.avf.avf(HwStruct::ROB);
    out["avf.reg"] = r.avf.avf(HwStruct::RegFile);
    out["avf.lsq_tag"] = r.avf.avf(HwStruct::LsqTag);
    out["avf.dl1_tag"] = r.avf.avf(HwStruct::Dl1Tag);
    out["avf.dead_frac"] = r.stats.get("deadCode.fraction");
    return traced_window;
}

} // namespace

double
probeSimulator(const SimProbe &p, Tracer &tr, Tally &tally, Values &out)
{
    constexpr unsigned kPasses = 3;
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced;
    for (unsigned i = 0; i < kPasses; ++i) {
        Values v;
        traced.push_back(probeOnce(p, tr, tally, v));
        for (const auto &[name, value] : v)
            samples[name].push_back(value);
    }
    for (const auto &[name, values] : samples)
        out[name] = median(values);
    return median(traced);
}

void
probeReplay(const MachineConfig &cfg, const WorkloadMix &mix,
            std::uint64_t per_thread, Tracer &tr, Values &out)
{
    const unsigned n = cfg.contexts;
    std::vector<std::unique_ptr<StreamGenerator>> gens;
    std::vector<std::unique_ptr<ThreadPredictor>> preds;
    for (unsigned t = 0; t < n; ++t) {
        gens.push_back(std::make_unique<StreamGenerator>(
            findProfile(mix.benchmarks[t]), cfg.seed,
            static_cast<ThreadId>(t)));
        preds.push_back(std::make_unique<ThreadPredictor>(cfg.branch));
    }
    MemHierarchy hier(cfg.mem);
    prewarm(hier, cfg, gens);

    // Chunks of instructions per thread: one span per layer per chunk,
    // since a single call is too short for the clock to resolve.
    constexpr std::uint64_t chunk = 256;
    std::vector<std::vector<DynInstr>> buf(n, std::vector<DynInstr>(chunk));
    std::vector<Addr> last_line(n, ~Addr{0});
    const Addr line_mask = ~Addr{cfg.mem.il1.lineBytes - 1};
    double gen_ns = 0.0, branch_ns = 0.0, mem_ns = 0.0;
    std::uint64_t generated = 0, accesses = 0;
    Cycle now = 1;

    Tracer::Scope replay(tr, "replay");
    for (std::uint64_t base = 0; base < per_thread; base += chunk) {
        const std::uint64_t len = std::min(chunk, per_thread - base);

        auto t0 = Clock::now();
        const std::uint64_t s0 = nowNs();
        for (unsigned t = 0; t < n; ++t) {
            for (std::uint64_t k = 0; k < len; ++k)
                buf[t][k] = gens[t]->at(base + k);
            gens[t]->retireBelow(base + len);
        }
        auto t1 = Clock::now();
        tr.add("workload.at", s0, nowNs());
        gen_ns += nsBetween(t0, t1);
        generated += len * n;

        t0 = Clock::now();
        const std::uint64_t s1 = nowNs();
        for (unsigned t = 0; t < n; ++t)
            for (std::uint64_t k = 0; k < len; ++k)
                if (isControl(buf[t][k].op)) {
                    preds[t]->predict(buf[t][k]);
                    preds[t]->train(buf[t][k]);
                }
        t1 = Clock::now();
        tr.add("branch.predict_train", s1, nowNs());
        branch_ns += nsBetween(t0, t1);

        t0 = Clock::now();
        const std::uint64_t s2 = nowNs();
        for (std::uint64_t k = 0; k < len; ++k) {
            for (unsigned t = 0; t < n; ++t) {
                const DynInstr &in = buf[t][k];
                const auto tid = static_cast<ThreadId>(t);
                if ((in.pc & line_mask) != last_line[t]) {
                    last_line[t] = in.pc & line_mask;
                    hier.fetch(tid, in.pc, now);
                    ++accesses;
                }
                if (in.op == OpClass::Load) {
                    hier.load(tid, in.memAddr, in.memSize, now);
                    ++accesses;
                } else if (in.op == OpClass::Store) {
                    hier.storeCommit(tid, in.memAddr, in.memSize, now);
                    ++accesses;
                }
            }
            hier.tick(++now);
        }
        t1 = Clock::now();
        tr.add("mem.access", s2, nowNs());
        mem_ns += nsBetween(t0, t1);
    }
    hier.finalize(now);

    std::uint64_t branches = 0, mispredicts = 0;
    for (const auto &p : preds) {
        branches += p->branches();
        mispredicts += p->mispredicts();
    }
    out["workload.gen_ns_per_instr"] = gen_ns / static_cast<double>(generated);
    out["workload.instrs_generated"] = static_cast<double>(generated);
    out["branch.ns_per_branch"] =
        branches ? branch_ns / static_cast<double>(branches) : 0.0;
    out["branch.mispredict_rate"] =
        branches ? static_cast<double>(mispredicts) / branches : 0.0;
    out["mem.ns_per_access"] =
        accesses ? mem_ns / static_cast<double>(accesses) : 0.0;
    out["mem.dl1_miss_rate"] = hier.dl1().missRate();
    out["mem.l2_miss_rate"] = hier.l2().missRate();
    out["mem.il1_miss_rate"] = hier.il1().missRate();
    out["mem.dtlb_miss_rate"] = hier.dtlb().missRate();
}

void
probeJournal(const std::vector<std::uint64_t> &fps,
             const std::vector<const SimResult *> &results,
             const std::string &path, Tracer &tr, Values &out)
{
    std::filesystem::remove(path);
    std::vector<double> append_us;
    {
        RunJournal journal(path);
        for (std::size_t i = 0; i < results.size(); ++i) {
            Tracer::Scope s(tr, "journal.append", i);
            journal.append(fps[i], *results[i]);
            append_us.push_back(s.seconds() * 1e6);
        }
    }
    out["journal.append_us"] = median(append_us);
    out["journal.bytes_per_run"] =
        static_cast<double>(std::filesystem::file_size(path)) /
        static_cast<double>(results.size());
    std::filesystem::remove(path);
}

} // namespace perfbench
