/**
 * @file
 * Shared pieces of the wall-clock benchmark: options, metric values,
 * the operation tally behind `attempted`/`failed`, the span tracer and
 * small clock and statistics helpers. The workloads (workloads.cc) and the
 * per-layer probes (layers.cc) drive the smtavf library only through its
 * public headers.
 */

#ifndef SMTAVF_PERFBENCH_BENCH_HH
#define SMTAVF_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since @p t0 (monotonic clock). */
double secondsSince(Clock::time_point t0);

/** Nanoseconds on the monotonic clock since the process started. */
std::uint64_t nowNs();

/** Process CPU seconds (user + system, all threads). */
double cpuSeconds();

/** Quantile with linear interpolation between order statistics. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Smallest sample: the fastest time, since host noise only adds time. */
inline double
fastest(const std::vector<double> &v)
{
    return quantile(v, 0.0);
}

/** Largest sample: the best rate. */
inline double
best(const std::vector<double> &v)
{
    return quantile(v, 1.0);
}

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes so the benchmark's own tests finish in seconds. */
    bool smoke = false;
    /** Test hook: damage one repetition's digest to prove the gate. */
    bool corruptDigest = false;
    /** Scratch directory inside the checkout (journals, trace JSON). */
    std::string workdir = ".";
};

/**
 * Operations attempted and failed (an operation is a run or an
 * evaluation; a failed correctness check fails the operations it
 * covers), plus the first few check messages for the log.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    /** Count @p ops operations; when !@p ok they all failed. */
    void check(bool ok, std::uint64_t ops, const std::string &what);
    /** Record a failed check that adds no operation of its own. */
    void fail(std::uint64_t ops, const std::string &what);
    bool correct() const { return failed == 0 && problems.empty(); }
};

/** Metric values by name (units live with the name tables in main.cc). */
using Values = std::map<std::string, double>;

/** What one workload reports. */
struct WorkloadResult
{
    Values values;
    Tally tally;
    std::uint32_t resultCrc = 0;
};

/**
 * In-memory span recorder for the traced run. A span has a name, start
 * and end, the span open around it when it began (its parent) and a run
 * id. Spans stay in memory and are written out once, at the end, as
 * Chrome trace-event JSON. Thread-safe: campaign progress callbacks add
 * spans from worker threads.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        int parent = -1;
        std::uint64_t run = 0;
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::uint64_t run = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since this span opened. */
        double seconds() const;

      private:
        Tracer &tracer_;
        int index_;
    };

    /** Add a closed span under the currently open one. */
    void add(const std::string &name, std::uint64_t start_ns,
             std::uint64_t end_ns, std::uint64_t run = 0);

    /** Self time (duration minus direct children) summed per name. */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

    /** Duration of the last closed span named @p name (0 if none). */
    double lastSeconds(const std::string &name) const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path,
                     const std::string &workload) const;

    std::size_t size() const;

  private:
    int open(const char *name, std::uint64_t run);
    void close(int index);

    mutable std::mutex mutex_;
    std::vector<Span> spans_;  ///< guarded by mutex_
    std::vector<int> stack_;   ///< open spans, guarded by mutex_
};

} // namespace perfbench

#endif // SMTAVF_PERFBENCH_BENCH_HH
