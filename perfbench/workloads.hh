/**
 * @file
 * The benchmark's named workloads.
 */

#ifndef SMTAVF_PERFBENCH_WORKLOADS_HH
#define SMTAVF_PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** Every workload name, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run workload @p opt.workload: repetitions of its untraced operation
 * for about opt.seconds (end-to-end metrics), then, with opt.trace, the
 * per-layer probes and one traced repetition on @p tracer.
 */
WorkloadResult runWorkload(const Options &opt, Tracer &tracer);

} // namespace perfbench

#endif // SMTAVF_PERFBENCH_WORKLOADS_HH
