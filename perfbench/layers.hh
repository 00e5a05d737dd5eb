/**
 * @file
 * Per-layer probes of the traced run. Each probe calls one module's
 * public functions from the benchmark's own code, records a span around
 * every call (or around each batch of calls, where one call is too short
 * to time alone) and fills the module's per-layer metrics.
 */

#ifndef SMTAVF_PERFBENCH_LAYERS_HH
#define SMTAVF_PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/machine_config.hh"
#include "metrics/metrics.hh"
#include "workload/mixes.hh"

namespace perfbench
{

/** A warmed, restored measured window of one (config, mix). */
struct SimProbe
{
    smtavf::MachineConfig cfg;
    smtavf::WorkloadMix mix;
    std::uint64_t warmup = 0;
    std::uint64_t budget = 0;
    /** Journal record the untraced window produced ("" = unknown). */
    std::string expectRecord;
    /** Untraced window seconds (0 = the probe measures one itself). */
    double untracedWindowSeconds = 0.0;
};

/**
 * `sim`, `core`, `ckpt` and `avf` layers: construct, warm up, encode,
 * decode and restore a checkpoint, tick the core call by call through
 * Simulator::core() over the measured window, finish the run, reset.
 * The result must equal the untraced window's record. Three passes;
 * each metric is its median, and so is the returned traced window's
 * wall seconds.
 */
double probeSimulator(const SimProbe &p, Tracer &tr, Tally &tally,
                      Values &out);

/**
 * `workload`, `branch` and `mem` layers: replay @p per_thread
 * correct-path instructions of each context's stream through
 * StreamGenerator::at/retireBelow, ThreadPredictor::predict/train and
 * MemHierarchy::fetch/load/storeCommit/tick.
 */
void probeReplay(const smtavf::MachineConfig &cfg,
                 const smtavf::WorkloadMix &mix, std::uint64_t per_thread,
                 Tracer &tr, Values &out);

/**
 * `journal` layer: append @p records (fingerprint, result) pairs to a
 * fresh journal at @p path, one span per RunJournal::append.
 */
void probeJournal(const std::vector<std::uint64_t> &fps,
                  const std::vector<const smtavf::SimResult *> &results,
                  const std::string &path, Tracer &tr, Values &out);

} // namespace perfbench

#endif // SMTAVF_PERFBENCH_LAYERS_HH
