/**
 * @file
 * Fault-tolerant sweep supervisor: the job-runner robustness layer over
 * the parallel sweep engine.
 *
 * The sweep engine (sweep.hh) runs independent tasks fast and
 * deterministically; this layer keeps a long campaign alive when
 * individual tasks go bad. Each supervised task runs inside a guard
 * that
 *   - enforces per-task budgets: a wall-clock watchdog deadline
 *     (`--task-timeout-ms`) and a simulated-event budget
 *     (`--task-max-events`), polled cooperatively by Scenario::run()
 *     between event chunks so the simulation itself stays untouched;
 *   - converts overruns, std::exception, std::bad_alloc, and the
 *     runAll event-storm guard into a structured TaskError taxonomy
 *     (timeout | exception | invariant_violation | resource_exhausted)
 *     instead of tearing down the sweep;
 *   - checkpoints completed tasks (index + payload + digest) into a
 *     JSON run manifest written atomically, so `--resume` skips
 *     finished work after an interrupt and `--only <index>` re-runs a
 *     single failing task of the outermost sweep solo.
 *
 * Each task runs once: scenarios are pure functions of their config and
 * seed, so a failed task would fail the same way again.
 *
 * Two entry points: run() supervises payload-producing tasks (each
 * returns the strings its caller will print, which is what makes
 * resumed stdout byte-identical), and guardedMap() supervises a typed
 * in-memory fan-out (the fairness repeats loop) with guards but no
 * checkpointing. Every sweep records a SweepReport; benches
 * print the aggregate failure table on stderr next to the self-profiler.
 */
// isol: domain(coord)

#ifndef ISOL_ISOLBENCH_SUPERVISOR_HH
#define ISOL_ISOLBENCH_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "isolbench/sweep.hh"

namespace isol::isolbench::supervisor
{

// --- Error taxonomy ---------------------------------------------------

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

/** Thrown by the budget polls inside a guarded task. */
class TaskAbort : public std::runtime_error
{
  public:
    TaskAbort(TaskErrorKind kind, const std::string &msg)
        : std::runtime_error(msg), kind_(kind)
    {
    }

    TaskErrorKind kind() const { return kind_; }

  private:
    TaskErrorKind kind_;
};

/** Classify a captured task exception into the taxonomy. */
TaskError classifyError(size_t task, const std::exception_ptr &error);

// --- Configuration ----------------------------------------------------

/** Process-wide supervision policy (set from CLI flags). */
struct Options
{
    /** Wall-clock watchdog per task, ms (0 = no watchdog). */
    double task_timeout_ms = 0.0;

    /** Simulated-event budget per task (0 = no budget). */
    uint64_t max_task_events = 0;

    /** Load the manifest and skip checkpointed tasks. */
    bool resume = false;

    /** Run only this task index of the outermost supervised sweep;
     *  sweeps nested inside a guarded task run every index. */
    std::optional<uint64_t> only;

    /** Manifest file ("" disables checkpointing). */
    std::string manifest_path;
};

void setOptions(const Options &options);
Options options();

// --- Reports ----------------------------------------------------------

/** Outcome of one supervised sweep. */
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

/** Reports of every supervised sweep so far, in execution order. */
std::vector<SweepReport> reports();
void clearReports();

/**
 * Multi-line failure table (sweep x error kind x count) plus a totals
 * line, for stderr. Always ends with the totals line; the
 * per-kind rows appear only when something actually went wrong.
 */
std::string failureTable();

// --- Supervised execution ---------------------------------------------

/**
 * A supervised task returns its result serialized as the text its
 * caller prints (or re-parses); payloads are what the manifest
 * checkpoints and what --resume restores.
 */
using Task = std::function<std::string()>;

/**
 * Run each task once under guards and (when a manifest path is
 * configured) per-task checkpointing. `payloads[i]` receives task i's
 * payload — restored from the manifest when resuming — or "" when the
 * task failed or was skipped via --only. Never throws for task
 * failures: the returned report carries them.
 */
SweepReport run(const std::string &sweep_name,
                const std::vector<Task> &tasks,
                std::vector<std::string> &payloads, uint32_t jobs = 0);

/** guardedMap's engine: run() with checkpointing forced off. */
SweepReport runUncheckpointed(const std::string &sweep_name,
                              const std::vector<Task> &tasks,
                              std::vector<std::string> &payloads,
                              uint32_t jobs = 0);

/** Rethrow a report's failures as a sweep::SweepError. */
[[noreturn]] void throwFailures(const SweepReport &report);

/**
 * Supervised typed fan-out for in-memory sweeps (e.g. the fairness
 * repeats loop): guards + error classification, but no checkpointing.
 * R must be default-constructible and movable. Throws SweepError when
 * any task fails — partial statistics would silently skew folded
 * results, so the whole map fails loudly (and a nested map's failure
 * fails the enclosing supervised task).
 */
template <typename R, typename Fn>
std::vector<R>
guardedMap(const std::string &name, size_t n, Fn fn, uint32_t jobs = 0)
{
    std::vector<R> out(n);
    std::vector<Task> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        // isol: parallel
        tasks.push_back([&out, fn, i]() -> std::string {
            out[i] = fn(i);
            return std::string();
        });
    }
    std::vector<std::string> payloads;
    SweepReport report = runUncheckpointed(name, tasks, payloads, jobs);
    if (!report.allOk())
        throwFailures(report);
    return out;
}

// --- Task guard (used by Scenario::run and tests) ---------------------

/** True when the calling thread executes inside a supervised task. */
bool guardActive();

/**
 * Charge `n` executed simulated events against every budget on this
 * thread's guard chain; throws TaskAbort{resource_exhausted} when a
 * budget is exceeded. No-op outside a guard.
 */
void chargeGuardEvents(uint64_t n);

/**
 * Throw TaskAbort{timeout} when the guard's watchdog deadline passed.
 * Wall time feeds only this error path, never results. No-op outside a
 * guard.
 */
void pollGuardDeadline();

// --- Manifest (exposed for tests) -------------------------------------

/** One checkpointed task. */
struct ManifestEntry
{
    uint64_t task = 0;
    std::string digest;
    std::string payload;
};

/** Checkpoint state of one sweep. */
struct ManifestSweep
{
    std::string name;
    uint64_t tasks = 0;
    std::vector<ManifestEntry> entries;
};

/** FNV-1a 64-bit digest, 16 hex chars. */
std::string digestOf(const std::string &payload);

/** Serialize sweeps as the manifest JSON document. */
std::string encodeManifest(const std::vector<ManifestSweep> &sweeps);

/** Parse a manifest document; false on malformed input. */
bool decodeManifest(const std::string &text,
                    std::vector<ManifestSweep> &out);

/** Load checkpoints from `path` into the process manifest state. */
bool loadManifestFile(const std::string &path);

/** Snapshot of the in-process manifest state (tests). */
std::vector<ManifestSweep> manifestState();

/** Drop all supervision state: options, reports, manifest (tests). */
void resetForTest();

} // namespace isol::isolbench::supervisor

#endif // ISOL_ISOLBENCH_SUPERVISOR_HH
