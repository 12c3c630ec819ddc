// isol: domain(coord)
#include "isolbench/supervisor.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <new>

#include "common/logging.hh"
#include "common/strings.hh"
#include "isolbench/validate.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "stats/table.hh"

namespace isol::isolbench::supervisor
{

namespace
{

// Like the sweep engine, the supervisor is sanctioned cross-run shared
// state: it coordinates guards and checkpoints and never feeds
// simulated decisions.

// isol-lint: allow(D4): protects the options/report/manifest sinks
std::mutex g_state_mutex;
// isol-lint: allow(D4): process-wide supervision policy set from CLI
// flags before any sweep runs
Options g_options;
// isol-lint: allow(D4): report sink (stderr only); recorded in
// execution order
std::vector<SweepReport> g_reports;
// isol-lint: allow(D4): checkpoints loaded from a prior run's manifest
// (salvage source under --resume)
std::map<std::string, ManifestSweep> g_loaded;
// isol-lint: allow(D4): checkpoints accumulated by this process (what
// the manifest writer persists)
std::map<std::string, ManifestSweep> g_current;

/** One event budget shared across a task's (possibly nested) workers. */
struct Budget
{
    std::shared_ptr<std::atomic<uint64_t>> count;
    uint64_t limit = 0;
};

/** Per-thread guard: watchdog deadline plus the budget chain. */
struct GuardState
{
    bool active = false;
    double deadline_ms = 0.0; //!< absolute monotonicMs(); 0 = none
    std::vector<Budget> budgets;
};

// isol-lint: allow(D4): per-thread task-guard context installed by the
// supervisor and copied into nested sweep workers; error path only
thread_local GuardState t_guard;

/** Copy the calling thread's guard into nested pool workers. */
void
registerWorkerContextCapture()
{
    // isol-lint: allow(D4): one-time hook registration flag
    static std::once_flag once;
    std::call_once(once, [] {
        sweep::setWorkerContextCapture([]() -> std::function<void()> {
            GuardState snapshot = t_guard;
            bool recoverable = sim::recoverableBudgets();
            return [snapshot, recoverable] {
                t_guard = snapshot;
                sim::setRecoverableBudgets(recoverable);
            };
        });
    });
}

/** Install per-task budgets for the current thread, RAII-scoped. */
class GuardScope
{
  public:
    explicit GuardScope(const Options &opt)
        : saved_(t_guard), saved_recoverable_(sim::recoverableBudgets())
    {
        registerWorkerContextCapture();
        GuardState next = t_guard;
        next.active = true;
        if (opt.task_timeout_ms > 0.0) {
            double deadline = sweep::monotonicMs() + opt.task_timeout_ms;
            next.deadline_ms = next.deadline_ms == 0.0
                                   ? deadline
                                   : std::min(next.deadline_ms, deadline);
        }
        if (opt.max_task_events > 0) {
            next.budgets.push_back(
                Budget{std::make_shared<std::atomic<uint64_t>>(0),
                       opt.max_task_events});
        }
        t_guard = std::move(next);
        sim::setRecoverableBudgets(true);
    }

    ~GuardScope()
    {
        t_guard = saved_;
        sim::setRecoverableBudgets(saved_recoverable_);
    }

    GuardScope(const GuardScope &) = delete;
    GuardScope &operator=(const GuardScope &) = delete;

  private:
    GuardState saved_;
    bool saved_recoverable_;
};

// --- JSON helpers (manifest is the only JSON we parse) ----------------

void
appendJsonString(std::string &out, const std::string &text)
{
    out += '"';
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Minimal pull-parser over the manifest's own output format. */
struct JsonReader
{
    const std::string &text;
    size_t pos = 0;

    explicit JsonReader(const std::string &t) : text(t) {}

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\r' || text[pos] == '\t'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    peek(char c)
    {
        skipSpace();
        return pos < text.size() && text[pos] == c;
    }

    bool
    readString(std::string &out)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != '"')
            return false;
        ++pos;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return false;
            char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return false;
                unsigned value = 0;
                for (int k = 0; k < 4; ++k) {
                    char h = text[pos++];
                    value <<= 4;
                    if (h >= '0' && h <= '9')
                        value |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        value |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        value |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // The writer only escapes control bytes this way.
                out += static_cast<char>(value & 0xff);
                break;
              }
              default: return false;
            }
        }
        return false;
    }

    bool
    readUint(uint64_t &out)
    {
        skipSpace();
        size_t start = pos;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
        if (pos == start)
            return false;
        auto parsed = parseUint(text.substr(start, pos - start));
        if (!parsed)
            return false;
        out = *parsed;
        return true;
    }

    /** Skip a primitive value we do not care about (number/string). */
    bool
    skipValue()
    {
        skipSpace();
        if (pos >= text.size())
            return false;
        if (text[pos] == '"') {
            std::string ignored;
            return readString(ignored);
        }
        while (pos < text.size() && text[pos] != ',' &&
               text[pos] != '}' && text[pos] != ']')
            ++pos;
        return true;
    }
};

bool
readManifestEntry(JsonReader &r, ManifestEntry &entry)
{
    if (!r.consume('{'))
        return false;
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.consume(':'))
            return false;
        bool ok;
        if (key == "task")
            ok = r.readUint(entry.task);
        else if (key == "digest")
            ok = r.readString(entry.digest);
        else if (key == "payload")
            ok = r.readString(entry.payload);
        else
            ok = r.skipValue();
        if (!ok)
            return false;
        if (!r.consume(','))
            break;
    }
    return r.consume('}');
}

bool
readManifestSweep(JsonReader &r, ManifestSweep &sweep)
{
    if (!r.consume('{'))
        return false;
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.consume(':'))
            return false;
        bool ok = true;
        if (key == "name") {
            ok = r.readString(sweep.name);
        } else if (key == "tasks") {
            ok = r.readUint(sweep.tasks);
        } else if (key == "completed") {
            if (!r.consume('['))
                return false;
            while (!r.peek(']')) {
                ManifestEntry entry;
                if (!readManifestEntry(r, entry))
                    return false;
                sweep.entries.push_back(std::move(entry));
                if (!r.consume(','))
                    break;
            }
            ok = r.consume(']');
        } else {
            ok = r.skipValue();
        }
        if (!ok)
            return false;
        if (!r.consume(','))
            break;
    }
    return r.consume('}');
}

/** Write `text` to `path` atomically (temp file + rename). */
bool
writeFileAtomic(const std::string &path, const std::string &text)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fputs(text.c_str(), f) >= 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return false;
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/** Persist g_current; caller holds g_state_mutex. */
void
writeManifestLocked(const std::string &path)
{
    if (path.empty())
        return;
    std::vector<ManifestSweep> sweeps;
    sweeps.reserve(g_current.size());
    for (const auto &[name, sweep] : g_current)
        sweeps.push_back(sweep);
    if (!writeFileAtomic(path, encodeManifest(sweeps)))
        std::fprintf(stderr,
                     "[supervisor] warning: could not write manifest "
                     "%s\n", path.c_str());
}

} // namespace

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

TaskError
classifyError(size_t task, const std::exception_ptr &error)
{
    TaskError out;
    out.task = task;
    if (!error) {
        out.message = "no exception";
        return out;
    }
    try {
        std::rethrow_exception(error);
    } catch (const TaskAbort &e) {
        out.kind = e.kind();
        out.message = e.what();
    } catch (const sweep::SweepError &e) {
        // A nested sweep failed; inherit the kind of its first failure
        // (e.g. budget aborts racing across nested workers).
        out.kind = TaskErrorKind::kException;
        out.message = e.what();
        if (!e.failures().empty() && e.failures().front().error) {
            out.kind =
                classifyError(task, e.failures().front().error).kind;
        }
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

std::vector<SweepReport>
reports()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    return g_reports;
}

void
clearReports()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_reports.clear();
}

std::string
failureTable()
{
    std::vector<SweepReport> all = reports();
    size_t sweeps = all.size();
    size_t tasks = 0;
    size_t completed = 0;
    size_t salvaged = 0;
    size_t failed = 0;
    bool any_errors = false;
    for (const SweepReport &r : all) {
        tasks += r.tasks;
        completed += r.completed;
        salvaged += r.salvaged;
        failed += r.failed;
        any_errors = any_errors || !r.errors.empty() || r.salvaged > 0;
    }

    std::string out;
    if (any_errors) {
        stats::Table table(
            {"sweep", "error kind", "errors", "salvaged"});
        for (const SweepReport &r : all) {
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
                table.addRow({r.name, taskErrorKindName(kind),
                              strCat(errors), strCat(r.salvaged)});
                printed = true;
            }
            if (!printed)
                table.addRow({r.name, "-", "0", strCat(r.salvaged)});
        }
        out += table.toAligned();
    }
    out += strCat("[supervisor] ", sweeps, " sweeps, ", tasks,
                  " tasks: ", completed, " completed, ", salvaged,
                  " salvaged, ", failed, " failed\n");
    return out;
}

namespace
{

SweepReport
runImpl(const std::string &sweep_name, const std::vector<Task> &tasks,
        std::vector<std::string> &payloads, uint32_t jobs,
        bool checkpoint)
{
    Options opt = options();
    size_t n = tasks.size();
    SweepReport report;
    report.name = sweep_name;
    report.tasks = n;
    payloads.assign(n, std::string());
    checkpoint = checkpoint && !opt.manifest_path.empty();

    std::vector<char> done(n, 0);

    // Salvage checkpointed results when resuming. A digest or shape
    // mismatch silently re-runs the task — stale data must never win.
    if (checkpoint && opt.resume) {
        std::lock_guard<std::mutex> lock(g_state_mutex);
        auto it = g_loaded.find(sweep_name);
        if (it != g_loaded.end() && it->second.tasks == n) {
            for (const ManifestEntry &entry : it->second.entries) {
                if (entry.task >= n || done[entry.task] != 0)
                    continue;
                if (digestOf(entry.payload) != entry.digest)
                    continue;
                payloads[entry.task] = entry.payload;
                done[entry.task] = 1;
                ++report.salvaged;
            }
        }
    }

    if (checkpoint) {
        // (Re)open this sweep's manifest section with what survived.
        std::lock_guard<std::mutex> lock(g_state_mutex);
        ManifestSweep &sweep = g_current[sweep_name];
        sweep.name = sweep_name;
        sweep.tasks = n;
        sweep.entries.clear();
        for (size_t i = 0; i < n; ++i) {
            if (done[i] != 0)
                sweep.entries.push_back(
                    ManifestEntry{i, digestOf(payloads[i]),
                                  payloads[i]});
        }
        writeManifestLocked(opt.manifest_path);
    }

    // --only selects a grid point of the outermost sweep; a sweep nested
    // inside a guarded task is part of that point and runs in full.
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

    std::vector<std::function<void()>> work;
    work.reserve(pending.size());
    for (size_t i : pending) {
        work.push_back([&tasks, &payloads, &opt, i, checkpoint,
                        &sweep_name] {
            std::string payload;
            {
                GuardScope guard(opt);
                payload = tasks[i]();
            }
            payloads[i] = std::move(payload);
            if (checkpoint) {
                std::lock_guard<std::mutex> lock(g_state_mutex);
                ManifestSweep &sweep = g_current[sweep_name];
                sweep.entries.push_back(
                    ManifestEntry{i, digestOf(payloads[i]), payloads[i]});
                writeManifestLocked(opt.manifest_path);
            }
        });
    }

    // runCollect reports failures in task-index order, and pending is
    // ascending, so the errors come out sorted by task.
    for (const sweep::TaskFailure &f :
         sweep::runCollect(std::move(work), jobs))
        report.errors.push_back(classifyError(pending[f.task], f.error));
    report.failed = report.errors.size();
    report.completed = pending.size() - report.failed;

    {
        std::lock_guard<std::mutex> lock(g_state_mutex);
        g_reports.push_back(report);
    }
    return report;
}

} // namespace

SweepReport
run(const std::string &sweep_name, const std::vector<Task> &tasks,
    std::vector<std::string> &payloads, uint32_t jobs)
{
    return runImpl(sweep_name, tasks, payloads, jobs, true);
}

SweepReport
runUncheckpointed(const std::string &sweep_name,
                  const std::vector<Task> &tasks,
                  std::vector<std::string> &payloads, uint32_t jobs)
{
    return runImpl(sweep_name, tasks, payloads, jobs, false);
}

void
throwFailures(const SweepReport &report)
{
    std::vector<sweep::TaskFailure> failures;
    for (const TaskError &e : report.errors) {
        failures.push_back(sweep::TaskFailure{
            e.task, strCat(taskErrorKindName(e.kind), ": ", e.message),
            nullptr});
    }
    throw sweep::SweepError(std::move(failures));
}

bool
guardActive()
{
    return t_guard.active;
}

void
chargeGuardEvents(uint64_t n)
{
    if (!t_guard.active || n == 0)
        return;
    for (const Budget &budget : t_guard.budgets) {
        uint64_t total =
            budget.count->fetch_add(n, std::memory_order_relaxed) + n;
        if (budget.limit != 0 && total > budget.limit) {
            throw TaskAbort(
                TaskErrorKind::kResourceExhausted,
                strCat("simulated-event budget exceeded: ", total,
                       " events > limit ", budget.limit));
        }
    }
}

void
pollGuardDeadline()
{
    if (!t_guard.active || t_guard.deadline_ms == 0.0)
        return;
    double now = sweep::monotonicMs();
    if (now > t_guard.deadline_ms) {
        throw TaskAbort(
            TaskErrorKind::kTimeout,
            strCat("watchdog deadline exceeded by ",
                   formatDouble(now - t_guard.deadline_ms, 1), " ms"));
    }
}

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
encodeManifest(const std::vector<ManifestSweep> &sweeps)
{
    std::string out = "{\n  \"version\": 1,\n";
    out += strCat("  \"written_ms\": ",
                  formatDouble(sweep::monotonicMs(), 3), ",\n");
    out += "  \"sweeps\": [\n";
    for (size_t s = 0; s < sweeps.size(); ++s) {
        const ManifestSweep &sweep = sweeps[s];
        out += "    {\"name\": ";
        appendJsonString(out, sweep.name);
        out += strCat(", \"tasks\": ", sweep.tasks,
                      ", \"completed\": [\n");
        std::vector<ManifestEntry> entries = sweep.entries;
        std::sort(entries.begin(), entries.end(),
                  [](const ManifestEntry &a, const ManifestEntry &b) {
                      return a.task < b.task;
                  });
        for (size_t e = 0; e < entries.size(); ++e) {
            out += strCat("      {\"task\": ", entries[e].task,
                          ", \"digest\": ");
            appendJsonString(out, entries[e].digest);
            out += ", \"payload\": ";
            appendJsonString(out, entries[e].payload);
            out += "}";
            out += e + 1 < entries.size() ? ",\n" : "\n";
        }
        out += "    ]}";
        out += s + 1 < sweeps.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

bool
decodeManifest(const std::string &text, std::vector<ManifestSweep> &out)
{
    out.clear();
    JsonReader r(text);
    if (!r.consume('{'))
        return false;
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.consume(':'))
            return false;
        bool ok = true;
        if (key == "sweeps") {
            if (!r.consume('['))
                return false;
            while (!r.peek(']')) {
                ManifestSweep sweep;
                if (!readManifestSweep(r, sweep))
                    return false;
                out.push_back(std::move(sweep));
                if (!r.consume(','))
                    break;
            }
            ok = r.consume(']');
        } else {
            ok = r.skipValue();
        }
        if (!ok)
            return false;
        if (!r.consume(','))
            break;
    }
    return r.consume('}');
}

bool
loadManifestFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    std::vector<ManifestSweep> sweeps;
    if (!decodeManifest(text, sweeps)) {
        std::fprintf(stderr,
                     "[supervisor] warning: malformed manifest %s "
                     "ignored\n", path.c_str());
        return false;
    }
    std::lock_guard<std::mutex> lock(g_state_mutex);
    for (ManifestSweep &sweep : sweeps)
        g_loaded[sweep.name] = std::move(sweep);
    return true;
}

std::vector<ManifestSweep>
manifestState()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    std::vector<ManifestSweep> out;
    out.reserve(g_current.size());
    for (const auto &[name, sweep] : g_current)
        out.push_back(sweep);
    return out;
}

void
resetForTest()
{
    std::lock_guard<std::mutex> lock(g_state_mutex);
    g_options = Options{};
    g_reports.clear();
    g_loaded.clear();
    g_current.clear();
}

} // namespace isol::isolbench::supervisor
