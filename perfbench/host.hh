/**
 * @file
 * Host context: CPU count, peak memory, the build guard.
 */

#ifndef SMTAVF_PERFBENCH_HOST_HH
#define SMTAVF_PERFBENCH_HOST_HH

#include "bench.hh"

namespace perfbench
{

/**
 * Why this binary must not report numbers (unoptimised, sanitizer or
 * coverage build), or nullptr when it is fit to.
 */
const char *unfitBuildReason();

/** Online CPUs (at least 1). */
unsigned hostCpus();

/** Peak resident set in MiB of this process, or of its largest child. */
double peakRssMb(bool children = false);

/** One line: nproc, compiler, build type, revision, seed. */
void printHostContext(const Options &opt);

} // namespace perfbench

#endif // SMTAVF_PERFBENCH_HOST_HH
