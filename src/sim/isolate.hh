/**
 * @file
 * Process-level run isolation for fault-tolerant campaigns.
 *
 * runTolerant()'s thread mode contains failures that surface as C++
 * exceptions, but a SIGSEGV, a runaway allocation the OOM killer
 * resolves, or a run that never polls the cancel flag still takes the
 * whole campaign down with it. Process mode closes that gap: runs
 * execute in forked children with their own rlimits (CPU seconds,
 * address space, core dumps off) and a supervisor-enforced *hard*
 * timeout — SIGKILL works on a child that never checks anything. A
 * child runs a batch of one or more runs over one framed pipe protocol
 * (runBatchInChild); a child per run is a batch of one. The supervisor
 * reaps every child and classifies its death into a small crash taxonomy
 * (CrashKind) that feeds the existing RunOutcome retry/quarantine
 * machinery (docs/ROBUSTNESS.md).
 *
 * Determinism: a healthy child computes exactly what the same run would
 * compute in-process (same code, same seed-derived RNG streams, no shared
 * mutable state) and ships its SimResult back over a pipe in the journal
 * wire format — hexfloat doubles, CRC-checked — so process-mode campaigns
 * are bit-identical to thread-mode ones. tests/test_isolate.cc proves it
 * differentially for 1- and 4-worker pools.
 */

#ifndef SMTAVF_SIM_ISOLATE_HH
#define SMTAVF_SIM_ISOLATE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/metrics.hh"

namespace smtavf
{

/** Where a fault-tolerant campaign executes its runs. */
enum class IsolateMode
{
    Thread, ///< in-process worker threads (exceptions contained, crashes not)
    Process ///< forked children: rlimits, hard kill timeout, taxonomy
};

/** Canonical lower-case name ("thread", "process"). */
const char *isolateModeName(IsolateMode m);

/** Parse an isolation mode name (case-insensitive). */
bool parseIsolateMode(const std::string &name, IsolateMode &out);

/**
 * How an isolated child died, when it did not deliver a clean protocol
 * result. The supervisor derives this from the wait status plus its own
 * knowledge of whether *it* sent the SIGKILL.
 */
enum class CrashKind
{
    None,        ///< no crash: the child delivered a protocol payload
    ExitCode,    ///< child exited with a nonzero code (or 0 and no payload)
    Segv,        ///< SIGSEGV
    Abort,       ///< SIGABRT (assert, abort(), unhandled exception path)
    Bus,         ///< SIGBUS
    CpuLimit,    ///< SIGXCPU: burned past RLIMIT_CPU
    Oom,         ///< allocation failure under the memory cap, or an
                 ///< unsolicited SIGKILL (the kernel OOM killer's weapon)
    HardTimeout, ///< supervisor SIGKILL at the hard wall-clock deadline
    Signal       ///< any other fatal signal
};

/** Short lower-case name ("segv", "cpu-limit", "hard-timeout", ...). */
const char *crashKindName(CrashKind k);

/**
 * Classify a waitpid() status. @p supervisor_killed must be true iff the
 * supervisor itself SIGKILLed the child (hard timeout or cancellation) —
 * it is what distinguishes a deliberate kill from the OOM killer's.
 * A normally-exited status (code 0) classifies as ExitCode here; callers
 * only ask after deciding the payload was not a clean result.
 */
CrashKind classifyWaitStatus(int wait_status, bool supervisor_killed);

/** Human-readable one-liner for a classified child death. */
std::string describeChildDeath(int wait_status, bool supervisor_killed);

/** Sandbox knobs applied to each forked child. */
struct ChildLimits
{
    /**
     * Supervisor-enforced wall-clock deadline per run (a batch of n runs
     * gets n times it); past it the child is SIGKILLed and the in-flight
     * run classified HardTimeout. Unlike the campaign soft timeout this
     * needs no cooperation from the child. 0 = no hard timeout.
     */
    double hardTimeoutSeconds = 0.0;
    /** RLIMIT_CPU in seconds (SIGXCPU past it); 0 = inherit. */
    std::uint64_t cpuSeconds = 0;
    /** RLIMIT_AS in bytes (allocations fail past it); 0 = inherit. */
    std::uint64_t memoryBytes = 0;
    /**
     * When set, the supervisor polls this flag while waiting and
     * SIGKILLs the child the moment it flips — so Ctrl-C interrupts even
     * a wedged child immediately. The death is reported as Cancelled,
     * not HardTimeout.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** Everything one run in an isolated child can come back as. */
struct ChildOutcome
{
    enum class Kind
    {
        Result,    ///< clean SimResult, bit-exact via the wire format
        Livelock,  ///< child reported LivelockError (deterministic)
        Cancelled, ///< child unwound on the cancel flag, or the
                   ///< supervisor killed it on cancellation
        Error,     ///< child caught a structured failure and reported it
        Crash      ///< child died; see crash for the taxonomy
    };

    Kind kind = Kind::Crash;
    SimResult result;             ///< valid when kind == Result
    std::string message;          ///< failure text (empty for Result)
    CrashKind crash = CrashKind::None; ///< valid when kind == Crash
};

/**
 * Outcome of one child execution (runBatchInChild). A batch amortizes
 * the fork/construction cost of process isolation over several runs:
 * the child executes fn(0..n-1) sequentially — reusing one worker-local
 * Simulator across shape-compatible runs — and frames each run's result
 * on the pipe as it completes, so every run finished *before* a crash
 * survives the crash.
 */
struct ChildBatchOutcome
{
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Per-run outcomes; consult reported[k] before runs[k]. */
    std::vector<ChildOutcome> runs;
    /** reported[k]: run k's frame arrived complete (CRC-checkable). */
    std::vector<char> reported;

    /**
     * The run the child had started but never framed when it died —
     * the one its death is attributed to. npos when the child died
     * between runs (or never started one): the death then belongs to
     * the batch infrastructure, not a particular run.
     */
    std::size_t inFlight = npos;

    /** True when some run never reported (crash, kill, torn pipe). */
    bool childDied = false;
    /** The supervisor killed the child because the cancel flag flipped. */
    bool cancelled = false;
    /** How the child died (valid when childDied && !cancelled). */
    CrashKind crash = CrashKind::None;
    /** Why the child died (set whenever childDied). */
    std::string crashMessage;

    bool
    allReported() const
    {
        for (char r : reported)
            if (!r)
                return false;
        return true;
    }
};

/**
 * Run fn(0), ..., fn(n-1) sequentially in ONE forked, sandboxed child
 * and collect every run's outcome.
 *
 * The child disables core dumps, applies the rlimits and arranges to die
 * with its supervisor (PR_SET_PDEATHSIG). The supervisor enforces the
 * hard timeout with SIGKILL, scaled by n — it cannot see per-run
 * boundaries precisely enough to re-arm a per-run deadline, so the
 * deadline is per batch — then reaps the child and classifies any
 * non-protocol death via classifyWaitStatus(). Exceptions never cross
 * the process boundary.
 *
 * The wire protocol is framed: the child writes `start <k>\n` before
 * each run and `<tag> <k> <len>\n<payload>` after it. Tag "ok" carries
 * the run's SimResult as a CRC'd `run v3` journal record (hexfloat-
 * exact); "livelock", "cancelled", "oom" and "error" carry the failure
 * message. The supervisor parses whatever frames arrived before EOF,
 * attributes a death to the started-but-unframed run, and leaves later
 * runs unreported so the caller can re-dispatch just the remainder.
 *
 * fn runs in the child process: state it mutates is invisible to the
 * parent, and anything it does fatally wrong (segfault, leak past the
 * cap, infinite loop) is contained. This is also the chaos-injection
 * seam: a test runFn that raises SIGSEGV on a designated index exercises
 * the real kill/reap/classify path (tests/test_isolate.cc).
 */
ChildBatchOutcome runBatchInChild(std::size_t n,
                                  const std::function<SimResult(std::size_t)>
                                      &fn,
                                  const ChildLimits &limits);

/**
 * SIGKILL every child currently being supervised by runBatchInChild() in
 * this process. Async-signal-safe; the CLI's hard-exit SIGINT handler calls
 * it so a second Ctrl-C never leaves orphaned simulation children
 * burning CPU.
 */
void killLiveChildren();

/**
 * Deterministic exponential retry backoff: 0 for the first attempt or a
 * zero base, else base * 2^(attempt-1) * (1 + jitter) seconds, where
 * jitter in [0, 1) derives from splitSeed(@p seed, @p attempt) — the
 * same run backs off identically on every replay of the campaign, while
 * different runs decorrelate instead of thundering back together.
 * The exponent saturates at 2^16 so absurd attempt counts stay finite.
 */
double retryBackoffSeconds(unsigned attempt, std::uint64_t seed,
                           double base);

} // namespace smtavf

#endif // SMTAVF_SIM_ISOLATE_HH
