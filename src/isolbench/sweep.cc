// isol: domain(coord)
#include "isolbench/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "common/logging.hh"
#include "common/strings.hh"
#include "isolbench/validate.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "stats/table.hh"

namespace isol::isolbench::sweep
{

namespace
{

// The run layer is the one sanctioned piece of cross-run shared state
// in src/: it coordinates workers, guards, reports, checkpoints and
// profiles, is mutex-protected or per-thread, and never feeds simulated
// decisions.

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

/** Checkpoint log state: opened by the first checkpointing sweep. */
struct Manifest
{
    bool opened = false;
    std::unique_ptr<std::FILE, FileCloser> file;
    std::vector<ManifestEntry> loaded; //!< salvage source (--resume)
};

// isol-lint: allow(D4): protects the options/report/manifest state below
std::mutex g_state_mutex;
// isol-lint: allow(D4): process-wide run policy set from command-line
// flags before any sweep runs
Options g_options;
// isol-lint: allow(D4): report sink (stderr only); recorded in
// execution order
std::vector<SweepReport> g_reports;
// isol-lint: allow(D4): the checkpoint log shared by all sweeps of a
// process
Manifest g_manifest;

/** One event budget shared across a task's (possibly nested) workers. */
struct Budget
{
    std::shared_ptr<std::atomic<uint64_t>> count;
    uint64_t limit = 0;
};

/** Per-thread guard: watchdog deadline plus the budget chain. */
struct GuardState
{
    bool active = false; //!< inside a pool task
    bool in_worker = false; //!< on a pool thread: nested sweeps go inline
    bool limited = false; //!< a deadline or budget applies
    double deadline_ms = 0.0; //!< absolute monotonicMs(); 0 = none
    std::vector<Budget> budgets;
};

// isol-lint: allow(D4): per-thread task-guard context, copied into
// nested pool workers; error path and pool control flow only
thread_local GuardState t_guard;

/** Install one task's guard on the current thread, RAII-scoped. */
class GuardScope
{
  public:
    explicit GuardScope(const Options &opt)
        : saved_(t_guard), saved_recoverable_(sim::recoverableBudgets())
    {
        t_guard.active = true;
        if (opt.task_timeout_ms > 0.0) {
            double deadline = monotonicMs() + opt.task_timeout_ms;
            t_guard.deadline_ms =
                t_guard.deadline_ms == 0.0
                    ? deadline
                    : std::min(t_guard.deadline_ms, deadline);
        }
        if (opt.max_task_events > 0) {
            t_guard.budgets.push_back(
                Budget{std::make_shared<std::atomic<uint64_t>>(0),
                       opt.max_task_events});
        }
        t_guard.limited =
            t_guard.deadline_ms != 0.0 || !t_guard.budgets.empty();
        sim::setRecoverableBudgets(true);
    }

    ~GuardScope()
    {
        t_guard = std::move(saved_);
        sim::setRecoverableBudgets(saved_recoverable_);
    }

    GuardScope(const GuardScope &) = delete;
    GuardScope &operator=(const GuardScope &) = delete;

  private:
    GuardState saved_;
    bool saved_recoverable_;
};

uint32_t
autoJobs()
{
    if (const char *env = std::getenv("ISOL_JOBS")) {
        if (auto parsed = parseUint(env); parsed && *parsed > 0)
            return static_cast<uint32_t>(*parsed);
    }
    uint32_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Run task(k) for k in 0..n-1 on `jobs` workers, each inside a task
 * guard. Returns the failures, classified, in index order.
 */
std::vector<TaskError>
runPool(size_t n, const std::function<void(size_t)> &task, uint32_t jobs)
{
    if (n == 0)
        return {};
    const Options opt = options();
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    auto drain = [&] {
        for (;;) {
            size_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= n)
                break;
            try {
                GuardScope guard(opt);
                task(k);
            } catch (...) {
                errors[k] = std::current_exception();
            }
        }
    };

    uint32_t workers = jobs != 0 ? jobs : defaultJobs();
    if (workers > n)
        workers = static_cast<uint32_t>(n);
    if (workers <= 1 || t_guard.in_worker) {
        drain();
    } else {
        // Workers inherit the starting thread's guard, so an enclosing
        // task's deadline and budget keep applying across the hop.
        const GuardState context = t_guard;
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (uint32_t w = 0; w < workers; ++w) {
            pool.emplace_back([&drain, &context] {
                t_guard = context;
                t_guard.in_worker = true;
                drain();
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    std::vector<TaskError> failures;
    for (size_t k = 0; k < n; ++k) {
        if (errors[k])
            failures.push_back(classifyError(k, errors[k]));
    }
    return failures;
}

std::string
failureSummary(const std::vector<TaskError> &failures)
{
    std::string msg = strCat("sweep: ", failures.size(), " tasks failed:");
    for (const TaskError &f : failures) {
        msg += strCat(" [", f.task, "] ", taskErrorKindName(f.kind), ": ",
                      f.message, ";");
    }
    msg.pop_back();
    return msg;
}

// --- Checkpoint log -------------------------------------------------

void
appendEscaped(std::string &out, const std::string &text)
{
    for (char c : text) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
}

bool
unescape(const std::string &text, std::string &out)
{
    out.clear();
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\') {
            out += text[i];
            continue;
        }
        if (++i == text.size())
            return false;
        switch (text[i]) {
          case '\\': out += '\\'; break;
          case 't': out += '\t'; break;
          case 'n': out += '\n'; break;
          default: return false;
        }
    }
    return true;
}

/**
 * Open the log for this process on first use; caller holds
 * g_state_mutex. Under --resume, first load every complete line and
 * terminate a torn tail, so appended lines start on a line of their own.
 */
void
openManifestLocked(const Options &opt)
{
    if (g_manifest.opened)
        return;
    g_manifest.opened = true;
    bool torn = false;
    if (opt.resume) {
        if (std::FILE *in = std::fopen(opt.manifest_path.c_str(), "r")) {
            std::string text;
            char buf[4096];
            size_t got;
            while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0)
                text.append(buf, got);
            std::fclose(in);
            // A final line without its newline is torn: never salvaged.
            size_t start = 0;
            for (size_t end; (end = text.find('\n', start)) !=
                             std::string::npos;
                 start = end + 1) {
                ManifestEntry entry;
                if (parseManifestLine(text.substr(start, end - start),
                                      entry))
                    g_manifest.loaded.push_back(std::move(entry));
            }
            torn = start < text.size();
        }
    }
    g_manifest.file.reset(
        std::fopen(opt.manifest_path.c_str(), opt.resume ? "a" : "w"));
    if (!g_manifest.file) {
        std::fprintf(stderr, "[sweep] warning: cannot write manifest %s\n",
                     opt.manifest_path.c_str());
    } else if (torn) {
        std::fputc('\n', g_manifest.file.get());
    }
}

/** Restore `name`'s checkpointed payloads; returns how many. */
size_t
salvage(const Options &opt, const std::string &name,
        std::vector<std::string> &payloads, std::vector<char> &done)
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    openManifestLocked(opt);
    size_t salvaged = 0;
    for (const ManifestEntry &entry : g_manifest.loaded) {
        if (entry.sweep != name || entry.tasks != payloads.size())
            continue;
        payloads[entry.task] = entry.payload;
        if (done[entry.task] == 0) {
            done[entry.task] = 1;
            ++salvaged;
        }
    }
    return salvaged;
}

void
appendCheckpoint(const ManifestEntry &entry)
{
    std::string line = manifestLine(entry);
    std::lock_guard<std::mutex> lock(g_state_mutex);
    if (!g_manifest.file)
        return;
    if (std::fputs(line.c_str(), g_manifest.file.get()) < 0 ||
        std::fflush(g_manifest.file.get()) != 0)
        std::fprintf(stderr, "[sweep] warning: manifest write failed\n");
}

// isol-lint: allow(D4): protects the profile sink below
std::mutex g_profile_mutex;
// isol-lint: allow(D4): profiling sink (stderr/JSON only); recorded in
// completion order by design, summaries fold commutatively
std::vector<ScenarioProfile> g_profiles;

void
appendJsonProfile(std::string &out, const ScenarioProfile &p)
{
    out += strCat("    {\"name\": \"", p.name, "\", \"wall_ms\": ",
                  formatDouble(p.wall_ms, 3), ", \"events\": ", p.events,
                  ", \"events_per_sec\": ",
                  formatDouble(p.events_per_sec, 0),
                  ", \"peak_queue_depth\": ", p.peak_queue_depth,
                  ", \"invariant_checks\": ", p.invariant_checks,
                  ", \"adversary_tenants\": ", p.adversary_tenants,
                  ", \"gate_bookkeeping_ops\": ", p.gate_bookkeeping_ops,
                  "}");
}

} // namespace

// --- Options --------------------------------------------------------

void
setOptions(const Options &options)
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_options = options;
}

Options
options()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    return g_options;
}

uint32_t
defaultJobs()
{
    uint32_t jobs = options().jobs;
    return jobs != 0 ? jobs : autoJobs();
}

bool
parseFlag(int argc, char **argv, int &i, Options &opt,
          bool checkpoint_flags)
{
    const char *flag = argv[i];
    auto is = [flag](const char *name) {
        return std::strcmp(flag, name) == 0;
    };
    auto value = [&] {
        auto parsed = i + 1 < argc ? parseUint(argv[++i])
                                   : std::optional<uint64_t>{};
        if (!parsed)
            fatal(strCat("bad or missing value for '", flag, "'"));
        return *parsed;
    };

    if (is("--jobs")) {
        uint64_t jobs = value();
        if (jobs == 0 || jobs > UINT32_MAX)
            fatal("bad or missing value for '--jobs'");
        opt.jobs = static_cast<uint32_t>(jobs);
    } else if (is("--task-timeout-ms")) {
        opt.task_timeout_ms = static_cast<double>(value());
    } else if (is("--task-max-events")) {
        opt.max_task_events = value();
    } else if (checkpoint_flags && is("--resume")) {
        opt.resume = true;
    } else if (checkpoint_flags && is("--only")) {
        opt.only = value();
    } else if (checkpoint_flags && is("--manifest")) {
        if (i + 1 >= argc)
            fatal("missing value for '--manifest'");
        opt.manifest_path = argv[++i];
    } else {
        return false;
    }
    return true;
}

// --- Errors ---------------------------------------------------------

const char *
taskErrorKindName(TaskErrorKind kind)
{
    switch (kind) {
      case TaskErrorKind::kTimeout: return "timeout";
      case TaskErrorKind::kException: return "exception";
      case TaskErrorKind::kInvariantViolation:
        return "invariant_violation";
      case TaskErrorKind::kResourceExhausted:
        return "resource_exhausted";
    }
    return "?";
}

SweepError::SweepError(TaskErrorKind kind, const std::string &message)
    : std::runtime_error(message), failures_{TaskError{0, kind, message}}
{
}

SweepError::SweepError(std::vector<TaskError> failures)
    : std::runtime_error(failureSummary(failures)),
      failures_(std::move(failures))
{
}

TaskError
classifyError(size_t task, const std::exception_ptr &error)
{
    TaskError out;
    out.task = task;
    try {
        std::rethrow_exception(error);
    } catch (const SweepError &e) {
        // A guard trip, or a nested sweep that failed: it carries its kind.
        out.kind = e.kind();
        out.message = e.what();
    } catch (const sim::BudgetExceeded &e) {
        out.kind = TaskErrorKind::kResourceExhausted;
        out.message = e.what();
    } catch (const validate::InvariantViolation &e) {
        out.kind = TaskErrorKind::kInvariantViolation;
        out.message = e.what();
    } catch (const sim::InvariantViolation &e) {
        // Runtime invariant checker (sim/invariants.hh): same taxonomy
        // bucket as the post-run validators.
        out.kind = TaskErrorKind::kInvariantViolation;
        out.message = e.what();
    } catch (const std::bad_alloc &e) {
        out.kind = TaskErrorKind::kResourceExhausted;
        out.message = strCat("allocation failed: ", e.what());
    } catch (const std::exception &e) {
        out.kind = TaskErrorKind::kException;
        out.message = e.what();
    } catch (...) {
        out.kind = TaskErrorKind::kException;
        out.message = "unknown non-std exception";
    }
    return out;
}

// --- Task guard -----------------------------------------------------

bool
guardActive()
{
    return t_guard.active;
}

void
checkGuard(uint64_t events)
{
    if (!t_guard.limited)
        return;
    for (const Budget &budget : t_guard.budgets) {
        uint64_t total =
            budget.count->fetch_add(events, std::memory_order_relaxed) +
            events;
        if (total > budget.limit) {
            throw SweepError(
                TaskErrorKind::kResourceExhausted,
                strCat("simulated-event budget exceeded: ", total,
                       " events > limit ", budget.limit));
        }
    }
    if (t_guard.deadline_ms == 0.0)
        return;
    double now = monotonicMs();
    if (now > t_guard.deadline_ms) {
        throw SweepError(
            TaskErrorKind::kTimeout,
            strCat("watchdog deadline exceeded by ",
                   formatDouble(now - t_guard.deadline_ms, 1), " ms"));
    }
}

// --- Running sweeps -------------------------------------------------

void
run(std::vector<std::function<void()>> tasks, uint32_t jobs)
{
    std::vector<TaskError> failures = runPool(
        tasks.size(), [&tasks](size_t k) { tasks[k](); }, jobs);
    if (!failures.empty())
        throw SweepError(std::move(failures));
}

SweepReport
detail::runNamed(const std::string &name, size_t n,
                 const std::function<std::string(size_t)> &task,
                 std::vector<std::string> &payloads, uint32_t jobs,
                 bool checkpoint)
{
    const Options opt = options();
    SweepReport report;
    report.name = name;
    report.tasks = n;
    payloads.assign(n, std::string());
    checkpoint = checkpoint && !opt.manifest_path.empty();

    std::vector<char> done(n, 0);
    if (checkpoint)
        report.salvaged = salvage(opt, name, payloads, done);

    // --only selects a grid point of the outermost sweep; a sweep nested
    // inside a pool task is part of that point and runs in full.
    const bool only_here = opt.only.has_value() && !guardActive();
    std::vector<size_t> pending;
    for (size_t i = 0; i < n; ++i) {
        if (done[i] != 0)
            continue;
        if (only_here && *opt.only != i) {
            ++report.skipped;
            continue;
        }
        pending.push_back(i);
    }

    report.errors = runPool(
        pending.size(),
        [&](size_t k) {
            size_t i = pending[k];
            payloads[i] = task(i);
            if (checkpoint)
                appendCheckpoint(ManifestEntry{name, n, i, payloads[i]});
        },
        jobs);
    for (TaskError &e : report.errors)
        e.task = pending[e.task];
    report.failed = report.errors.size();
    report.completed = pending.size() - report.failed;

    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_reports.push_back(report);
    return report;
}

SweepReport
run(const std::string &name, const std::vector<Task> &tasks,
    std::vector<std::string> &payloads, uint32_t jobs)
{
    return detail::runNamed(
        name, tasks.size(), [&tasks](size_t i) { return tasks[i](); },
        payloads, jobs, true);
}

std::vector<SweepReport>
reports()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    return g_reports;
}

std::string
failureTable()
{
    std::vector<SweepReport> all = reports();
    size_t tasks = 0;
    size_t completed = 0;
    size_t salvaged = 0;
    size_t failed = 0;
    stats::Table table({"sweep", "error kind", "errors", "salvaged"});
    for (const SweepReport &r : all) {
        tasks += r.tasks;
        completed += r.completed;
        salvaged += r.salvaged;
        failed += r.failed;
        if (r.errors.empty() && r.salvaged == 0)
            continue;
        constexpr TaskErrorKind kKinds[] = {
            TaskErrorKind::kTimeout, TaskErrorKind::kException,
            TaskErrorKind::kInvariantViolation,
            TaskErrorKind::kResourceExhausted};
        bool printed = false;
        for (TaskErrorKind kind : kKinds) {
            size_t errors = static_cast<size_t>(std::count_if(
                r.errors.begin(), r.errors.end(),
                [kind](const TaskError &e) { return e.kind == kind; }));
            if (errors == 0)
                continue;
            table.addRow({r.name, taskErrorKindName(kind), strCat(errors),
                          strCat(r.salvaged)});
            printed = true;
        }
        if (!printed)
            table.addRow({r.name, "-", "0", strCat(r.salvaged)});
    }

    std::string out = table.numRows() > 0 ? table.toAligned() : "";
    out += strCat("[sweep] ", all.size(), " sweeps, ", tasks, " tasks: ",
                  completed, " completed, ", salvaged, " salvaged, ",
                  failed, " failed\n");
    return out;
}

// --- Checkpoint log -------------------------------------------------

std::string
digestOf(const std::string &payload)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : payload) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
manifestLine(const ManifestEntry &entry)
{
    std::string out;
    appendEscaped(out, entry.sweep);
    out += strCat('\t', entry.tasks, '\t', entry.task, '\t',
                  digestOf(entry.payload), '\t');
    appendEscaped(out, entry.payload);
    out += '\n';
    return out;
}

bool
parseManifestLine(const std::string &line, ManifestEntry &out)
{
    std::vector<std::string> fields = splitString(line, '\t');
    if (fields.size() != 5)
        return false;
    auto tasks = parseUint(fields[1]);
    auto task = parseUint(fields[2]);
    if (!tasks || !task || *task >= *tasks ||
        !unescape(fields[0], out.sweep) ||
        !unescape(fields[4], out.payload))
        return false;
    out.tasks = *tasks;
    out.task = *task;
    return digestOf(out.payload) == fields[3];
}

void
resetForTest()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_options = Options{};
    g_reports.clear();
    g_manifest = Manifest{};
}

// --- Per-scenario self-profiling ------------------------------------

double
monotonicMs()
{
    // isol-lint: allow(D2): the sanctioned profiling clock; feeds
    // stderr/BENCH_sweep.json and the watchdog only, never simulated
    // state
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               now.time_since_epoch())
        .count();
}

void
recordProfile(ScenarioProfile profile)
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    g_profiles.push_back(std::move(profile));
}

std::vector<ScenarioProfile>
profiles()
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    return g_profiles;
}

void
clearProfiles()
{
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    g_profiles.clear();
}

ProfileSummary
profileSummary()
{
    ProfileSummary summary;
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    for (const ScenarioProfile &p : g_profiles) {
        ++summary.scenarios;
        summary.wall_ms += p.wall_ms;
        summary.events += p.events;
        if (p.peak_queue_depth > summary.peak_queue_depth)
            summary.peak_queue_depth = p.peak_queue_depth;
        summary.invariant_checks += p.invariant_checks;
        summary.adversary_tenants += p.adversary_tenants;
        summary.gate_bookkeeping_ops += p.gate_bookkeeping_ops;
    }
    if (summary.wall_ms > 0.0) {
        summary.events_per_sec = static_cast<double>(summary.events) /
                                 (summary.wall_ms / 1e3);
    }
    return summary;
}

std::string
profileSummaryLine()
{
    ProfileSummary s = profileSummary();
    return strCat("[sweep] ", s.scenarios, " scenarios, ",
                  s.events, " events in ", formatDouble(s.wall_ms, 1),
                  " ms sim-cpu (", formatDouble(s.events_per_sec / 1e6, 2),
                  " M events/s, peak queue depth ", s.peak_queue_depth,
                  ", jobs=", defaultJobs(), ")");
}

bool
writeProfileJson(const std::string &path)
{
    ProfileSummary s = profileSummary();
    std::vector<ScenarioProfile> all = profiles();

    std::string out = "{\n";
    out += strCat("  \"jobs\": ", defaultJobs(), ",\n");
    out += strCat("  \"scenarios\": ", s.scenarios, ",\n");
    out += strCat("  \"wall_ms\": ", formatDouble(s.wall_ms, 3), ",\n");
    out += strCat("  \"events\": ", s.events, ",\n");
    out += strCat("  \"events_per_sec\": ",
                  formatDouble(s.events_per_sec, 0), ",\n");
    out += strCat("  \"peak_queue_depth\": ", s.peak_queue_depth, ",\n");
    out += strCat("  \"invariant_checks\": ", s.invariant_checks, ",\n");
    out += strCat("  \"adversary_tenants\": ", s.adversary_tenants,
                  ",\n");
    out += strCat("  \"gate_bookkeeping_ops\": ", s.gate_bookkeeping_ops,
                  ",\n");
    out += "  \"per_scenario\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
        appendJsonProfile(out, all[i]);
        out += i + 1 < all.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs(out.c_str(), f);
    std::fclose(f);
    return true;
}

} // namespace isol::isolbench::sweep
