/**
 * @file
 * The run layer: one thread pool that runs every sweep of the campaign,
 * the task guard around each pool task, the error taxonomy, the
 * per-sweep report and the checkpoint log behind `--resume`.
 *
 * Pool. Tasks are independent, shared-nothing simulations (SPDK-reactor
 * style: each owns its Simulator, device models and seeded RNGs) and
 * write only their own result slot, so output is byte-identical to the
 * sequential run for any thread count and completion order. Workers
 * pull indices from one atomic counter. A sweep started from inside a
 * pool worker runs inline instead of spawning a second pool, so the
 * thread count stays bounded at the outermost fan-out.
 *
 * Guard. Every pool task runs inside a guard that
 *   - enforces the per-task budgets: a wall-clock watchdog
 *     (`--task-timeout-ms`) and a simulated-event budget
 *     (`--task-max-events`), polled by Scenario::run() between event
 *     chunks via checkGuard(); with neither set the poll is one flag
 *     check;
 *   - is copied into the workers of a nested sweep, so an outer task's
 *     deadline and budget keep applying to the work it fans out;
 *   - makes the runAll event-storm guard recoverable, and classifies
 *     every escaping exception into a TaskError kind (timeout |
 *     exception | invariant_violation | resource_exhausted).
 * A failure always surfaces as one SweepError carrying its kind.
 *
 * Entry points. run(tasks) and map(n, fn) are anonymous: they keep no
 * state between calls and throw SweepError when a task fails. The named
 * entries record a SweepReport (benches print the failure table on
 * stderr) and honour `--only`: run(name, tasks, payloads) never throws
 * and checkpoints each finished payload; map(name, n, fn) keeps typed
 * results in memory and throws.
 *
 * Checkpoint log. With a manifest path set, every finished task of a
 * named run() appends one line — sweep name, task count, index,
 * FNV-1a digest, payload; tab-separated and escaped — and flushes it.
 * `--resume` salvages a line only when it is complete, parses, and its
 * digest and shape match; anything else (a torn tail after a kill, a
 * doctored payload, a changed grid) re-runs. Tasks are pure functions
 * of config and seed, so each runs once and a resumed run prints the
 * same bytes.
 *
 * Profiles. Scenario::run() reports (events, events/sec, peak queue
 * depth) here; benches surface the aggregate on stderr and dump
 * `BENCH_sweep.json`. Profiling never touches stdout.
 */
// isol: domain(coord)

#ifndef ISOL_ISOLBENCH_SWEEP_HH
#define ISOL_ISOLBENCH_SWEEP_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace isol::isolbench::sweep
{

// --- Options --------------------------------------------------------

/** Process-wide run policy (set from command-line flags). */
struct Options
{
    /** Pool workers (0 = `ISOL_JOBS`, else hardware concurrency). */
    uint32_t jobs = 0;

    /** Wall-clock watchdog per task, ms (0 = no watchdog). */
    double task_timeout_ms = 0.0;

    /** Simulated-event budget per task (0 = no budget). */
    uint64_t max_task_events = 0;

    /** Salvage tasks checkpointed in the manifest. */
    bool resume = false;

    /** Run only this task index of the outermost named sweep; sweeps
     *  nested inside a pool task run every index. */
    std::optional<uint64_t> only;

    /** Checkpoint log ("" disables checkpointing). */
    std::string manifest_path;
};

void setOptions(const Options &options);
Options options();

/** Worker count used when a caller passes jobs=0. */
uint32_t defaultJobs();

/**
 * Parse the run flag at argv[i] into `opt`, advancing `i` past its
 * value: --jobs, --task-timeout-ms, --task-max-events and, when
 * `checkpoint_flags`, --resume, --only and --manifest. Returns false
 * when argv[i] is none of these; throws FatalError naming the flag when
 * its value is bad or missing.
 */
bool parseFlag(int argc, char **argv, int &i, Options &opt,
               bool checkpoint_flags);

// --- Errors ---------------------------------------------------------

enum class TaskErrorKind : uint8_t
{
    kTimeout, //!< wall-clock watchdog deadline exceeded
    kException, //!< task threw (config error, bug, ...)
    kInvariantViolation, //!< result failed post-run validation
    kResourceExhausted, //!< event budget / storm guard / bad_alloc
};

const char *taskErrorKindName(TaskErrorKind kind);

/** One failed task. */
struct TaskError
{
    size_t task = 0;
    TaskErrorKind kind = TaskErrorKind::kException;
    std::string message;
};

/**
 * The layer's one exception: a guard trip inside the running task, or
 * the failed tasks of a sweep (every failure, task-index order,
 * independent of thread count). kind() is the first failure's kind, so
 * a nested sweep's failure keeps its kind in the enclosing task.
 */
class SweepError : public std::runtime_error
{
  public:
    /** A guard trip: what() is `message`. */
    SweepError(TaskErrorKind kind, const std::string &message);

    /** The failed tasks of one sweep (non-empty, index order). */
    explicit SweepError(std::vector<TaskError> failures);

    TaskErrorKind kind() const { return failures_.front().kind; }

    const std::vector<TaskError> &failures() const { return failures_; }

  private:
    std::vector<TaskError> failures_;
};

/** Classify a captured task exception into the taxonomy. */
TaskError classifyError(size_t task, const std::exception_ptr &error);

// --- Task guard -----------------------------------------------------

/** True when the calling thread executes inside a pool task. */
bool guardActive();

/**
 * Charge `events` simulated events against every budget on this
 * thread's guard chain, then check the watchdog deadline; throws
 * SweepError{resource_exhausted | timeout} on an overrun. One flag
 * check when no budget or deadline applies (or outside a pool task).
 * Wall time feeds only this error path, never results.
 */
void checkGuard(uint64_t events);

// --- Running sweeps -------------------------------------------------

/**
 * Execute every task exactly once on `jobs` workers (0 = defaultJobs())
 * and block until all complete. Every task runs even if another throws;
 * afterwards any failures are thrown as one SweepError. Keeps no state
 * between calls.
 */
void run(std::vector<std::function<void()>> tasks, uint32_t jobs = 0);

/**
 * Map `fn(i)` over 0..n-1 in parallel, collecting results by index.
 * R must be default-constructible and movable.
 */
template <typename R, typename Fn>
std::vector<R>
map(size_t n, Fn fn, uint32_t jobs = 0)
{
    std::vector<R> out(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i)
        // isol: parallel
        tasks.push_back([&out, fn, i] { out[i] = fn(i); });
    run(std::move(tasks), jobs);
    return out;
}

/** Outcome of one named sweep. */
struct SweepReport
{
    std::string name;
    size_t tasks = 0;
    size_t completed = 0; //!< ran to success in this process
    size_t salvaged = 0; //!< skipped; payload restored from manifest
    size_t skipped = 0; //!< not run because of --only
    size_t failed = 0; //!< ran and failed
    std::vector<TaskError> errors; //!< one per failed task, index order

    bool allOk() const { return failed == 0; }
};

/**
 * A checkpointable task returns its result serialised as the text its
 * caller prints (or re-parses); that payload is what the manifest logs
 * and what --resume restores.
 */
using Task = std::function<std::string()>;

/**
 * Run a named sweep of payload tasks, checkpointing each finished
 * payload when a manifest path is set. `payloads[i]` receives task i's
 * payload — salvaged from the manifest under --resume — or "" when it
 * failed or --only skipped it. Never throws for task failures: the
 * returned (and recorded) report carries them.
 */
SweepReport run(const std::string &name, const std::vector<Task> &tasks,
                std::vector<std::string> &payloads, uint32_t jobs = 0);

namespace detail
{
/** The engine of both named entries; checkpoints only when asked. */
SweepReport runNamed(const std::string &name, size_t n,
                     const std::function<std::string(size_t)> &task,
                     std::vector<std::string> &payloads, uint32_t jobs,
                     bool checkpoint);
} // namespace detail

/**
 * Named typed fan-out (e.g. the fairness repeats loop): recorded in the
 * reports and subject to --only, but never checkpointed. Throws
 * SweepError when any task fails — partial statistics would silently
 * skew folded results, so the whole map fails loudly (and a nested
 * map's failure fails the enclosing task with the same kind).
 */
template <typename R, typename Fn>
std::vector<R>
map(const std::string &name, size_t n, Fn fn, uint32_t jobs = 0)
{
    std::vector<R> out(n);
    std::vector<std::string> payloads;
    SweepReport report = detail::runNamed(
        name, n,
        // isol: parallel
        [&out, &fn](size_t i) {
            out[i] = fn(i);
            return std::string();
        },
        payloads, jobs, false);
    if (!report.allOk())
        throw SweepError(std::move(report.errors));
    return out;
}

/** Reports of every named sweep so far, in execution order. */
std::vector<SweepReport> reports();

/**
 * Multi-line failure table (sweep x error kind x count) plus a totals
 * line, for stderr. Always ends with the totals line; the per-kind rows
 * appear only when something went wrong or was salvaged.
 */
std::string failureTable();

// --- Checkpoint log (exposed for tests) -----------------------------

/** One checkpointed task. */
struct ManifestEntry
{
    std::string sweep;
    uint64_t tasks = 0;
    uint64_t task = 0;
    std::string payload;
};

/** FNV-1a 64-bit digest, 16 hex chars. */
std::string digestOf(const std::string &payload);

/** The entry as one newline-terminated manifest line. */
std::string manifestLine(const ManifestEntry &entry);

/**
 * Parse one manifest line (without its newline). False when it is
 * malformed, its index is out of range or its digest does not match.
 */
bool parseManifestLine(const std::string &line, ManifestEntry &out);

/** Drop options, reports and manifest state; close the log (tests). */
void resetForTest();

// --- Per-scenario self-profiling ------------------------------------

/**
 * Monotonic wall-clock reading in milliseconds. The single sanctioned
 * profiling clock: wall time only ever feeds stderr summaries,
 * BENCH_sweep.json and the watchdog, never simulated state (isol-lint
 * rule D2 flags any other clock use).
 */
double monotonicMs();

/** Wall-clock profile of one completed Scenario::run(). */
struct ScenarioProfile
{
    std::string name;
    double wall_ms = 0.0;
    uint64_t events = 0;
    double events_per_sec = 0.0;
    uint64_t peak_queue_depth = 0;
    /** Runtime invariant checks performed (0 when checking is off). */
    uint64_t invariant_checks = 0;
    /** Tenants tagged with an adversary profile (chaos coverage). */
    uint64_t adversary_tenants = 0;
    /**
     * Per-cgroup bookkeeping operations inside the gates and elevators
     * (share recomputes, chain charge walks, window/queue scans), summed
     * over all devices. Deterministic event counts — with `events` they
     * give the fleet benches a "bookkeeping share" per scenario showing
     * where gate state handling becomes the scaling bottleneck.
     */
    uint64_t gate_bookkeeping_ops = 0;
};

/** Record one profile (thread-safe; called by Scenario::run()). */
void recordProfile(ScenarioProfile profile);

/** Snapshot of all profiles recorded so far, in completion order. */
std::vector<ScenarioProfile> profiles();

/** Drop all recorded profiles (tests). */
void clearProfiles();

/** Aggregate view over the recorded profiles. */
struct ProfileSummary
{
    uint64_t scenarios = 0;
    double wall_ms = 0.0; //!< summed single-scenario wall time
    uint64_t events = 0;
    double events_per_sec = 0.0; //!< events / summed wall time
    uint64_t peak_queue_depth = 0; //!< max across scenarios
    uint64_t invariant_checks = 0; //!< summed runtime invariant checks
    uint64_t adversary_tenants = 0; //!< summed adversarial tenants
    uint64_t gate_bookkeeping_ops = 0; //!< summed gate bookkeeping work
};

ProfileSummary profileSummary();

/** One-line human-readable summary (benches print this to stderr). */
std::string profileSummaryLine();

/**
 * Write the summary plus per-scenario profiles as JSON (BENCH_sweep.json).
 * Returns false when the file cannot be opened.
 */
bool writeProfileJson(const std::string &path);

} // namespace isol::isolbench::sweep

#endif // ISOL_ISOLBENCH_SWEEP_HH
