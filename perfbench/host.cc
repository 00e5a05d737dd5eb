/**
 * @file
 * Host context and the optimised-build guard.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "host.hh"

// Coverage builds link libgcov, which defines __gcov_dump; a weak
// reference stays null everywhere else.
extern "C" void __gcov_dump(void) __attribute__((weak));

namespace perfbench
{

const char *
unfitBuildReason()
{
#if !defined(__OPTIMIZE__)
    return "unoptimised build (no __OPTIMIZE__)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#else
    if (&__gcov_dump != nullptr)
        return "coverage build (libgcov linked)";
    return nullptr;
#endif
}

unsigned
hostCpus()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

double
peakRssMb(bool children)
{
    rusage ru{};
    getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void
printHostContext(const Options &opt)
{
    const char *rev = std::getenv("PERFBENCH_GIT_REV");
    std::printf("host nproc=%u compiler=\"g++ %s\" build=%s rev=%s "
                "workload=%s seed=%llu seconds=%g trace=%d%s\n",
                hostCpus(), __VERSION__, PERFBENCH_BUILD_TYPE,
                rev && *rev ? rev : "unknown", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.smoke ? " smoke=1" : "");
}

} // namespace perfbench
