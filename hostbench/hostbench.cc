/**
 * @file
 * Host-cost benchmark of the simulator: runs one named workload's
 * scenarios in rounds for a fixed host time, checks every simulated
 * output, and prints the end-to-end metrics (or, with --trace 1, the
 * per-layer metrics) as the last line of stdout in JSON.
 *
 *   hostbench --workload paper_flat --seed 1 --seconds 20 --trace 0
 *             --jobs N [--commit ID]
 *
 * See README.md for the metrics, the workloads and how to compare two
 * commits.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hh"
#include "drivers.hh"
#include "isolbench/sweep.hh"
#include "isolbench/validate.hh"
#include "workloads.hh"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hostbench
{
namespace
{

using namespace isol;
namespace sweep = isol::isolbench::sweep;
namespace validate = isol::isolbench::validate;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    uint32_t jobs = 0;
    std::string commit = "unknown";
};

/** Deterministic per-layer counts, read from public getters after run(). */
struct Counts
{
    uint64_t ios = 0; //!< simulated I/Os completed by all tenants
    uint64_t events = 0;
    uint64_t peak_depth = 0;
    uint64_t bookkeeping = 0;
    uint64_t blk_completed = 0;
    uint64_t iomax_throttled = 0;
    uint64_t iocost_throttled = 0;
    uint64_t gc_pages = 0;
    uint64_t erases = 0;
    uint64_t groups = 0;
    double die_util = 0.0;
    double waf = 0.0;
    double cpu_util = 0.0;
    double ctx_per_io = 0.0;
};

struct ScenarioResult
{
    bool failed = false;
    bool validate_failed = false;
    std::string error;
    Outputs out;
    Counts counts;
    double setup_s = 0.0; //!< host time of construction + populate
    double populate_s = 0.0; //!< host time of the cgroup tree build
    double run_s = 0.0; //!< host time of Scenario::run()
    std::string digest_line; //!< exact simulated outputs and counts
    /** Each tenant's mean I/Os in flight (Little's law), for the drivers. */
    std::vector<uint32_t> depths;
};

/** One untraced pass over every scenario of the workload. */
struct Round
{
    double setup_s = 0.0; //!< summed per-scenario set-up host time
    double setup_wall_s = 0.0; //!< host time of the set-up phase
    double wall_s = 0.0; //!< host time of the run phase
    std::vector<ScenarioResult> results;
};

/** Spans of the traced pass for one scenario. */
struct Trace
{
    double precondition_s = 0.0;
    double sim_s = 0.0;
    DriverSpan ssd;
    DriverSpan blk;
    double populate_s = 0.0;
    double full_s = 0.0;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --jobs N [--commit ID]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(strCat("missing value for ", flag));
        std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            auto v = parseUint(value);
            if (!v)
                usage("--seed must be a non-negative integer");
            opt.seed = *v;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            opt.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0))
                usage("--seconds must be a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--jobs") {
            auto v = parseUint(value);
            if (!v || *v == 0 || *v > 1024)
                usage("--jobs must be within 1..1024");
            opt.jobs = static_cast<uint32_t>(*v);
        } else if (flag == "--commit") {
            opt.commit = value;
        } else {
            usage(strCat("unknown flag ", flag));
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (opt.jobs == 0)
        usage("--jobs is required");
    return opt;
}

Counts
readCounts(Scenario &s)
{
    Counts c;
    for (uint32_t i = 0; i < s.numApps(); ++i)
        c.ios += s.app(i).totalIos();
    c.events = s.sim().eventsExecuted();
    c.peak_depth = s.sim().peakQueueDepth();
    for (uint32_t d = 0; d < s.numDevices(); ++d) {
        blk::BlockDevice &bdev = s.device(d);
        c.bookkeeping += bdev.gateBookkeepingOps();
        c.blk_completed += bdev.completed();
        if (auto *gate = bdev.ioMaxGate())
            c.iomax_throttled += gate->throttled();
        if (auto *gate = bdev.ioCostGate())
            c.iocost_throttled += gate->throttled();
        ssd::SsdDevice &dev = s.ssd(d);
        c.gc_pages += dev.gcPagesMoved();
        c.erases += dev.blocksErased();
        c.die_util += dev.dieUtilization() / s.numDevices();
        c.waf += dev.waf() / s.numDevices();
    }
    c.groups = s.tree().liveGroupCount();
    c.cpu_util = s.cpuUtilization();
    c.ctx_per_io = s.contextSwitchesPerIo();
    return c;
}

std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
digestLine(const std::string &name, const Outputs &o, const Counts &c)
{
    return strCat(name, " agg=", hex(o.agg_gibs), " p99=",
                  hex(o.lc_p99_us), " jain=", hex(o.jain), " ios=", c.ios,
                  " events=", c.events, " peak=", c.peak_depth,
                  " bk=", c.bookkeeping, " blk=", c.blk_completed,
                  " iomax_thr=", c.iomax_throttled,
                  " iocost_thr=", c.iocost_throttled, " gc=", c.gc_pages,
                  " erases=", c.erases, " groups=", c.groups,
                  " die=", hex(c.die_util), " waf=", hex(c.waf),
                  " cpu=", hex(c.cpu_util), " ctx=", hex(c.ctx_per_io),
                  "\n");
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Constructs and populates one scenario; nullptr when that throws. */
std::unique_ptr<Scenario>
build(const ScenarioDef &def, ScenarioResult &res)
{
    try {
        double t0 = nowSeconds();
        auto s = std::make_unique<Scenario>(def.cfg);
        double t1 = nowSeconds();
        def.populate(*s);
        double t2 = nowSeconds();
        res.populate_s = t2 - t1;
        res.setup_s = t2 - t0;
        return s;
    } catch (const std::exception &e) {
        res.failed = true;
        res.error = strCat("setup: ", e.what());
        return nullptr;
    }
}

/** Runs one built scenario and checks its outputs. Never throws. */
void
runOne(const ScenarioDef &def, Scenario &s, ScenarioResult &res)
{
    double t = nowSeconds();
    try {
        s.run();
    } catch (const validate::InvariantViolation &e) {
        res.failed = true;
        res.validate_failed = true;
        res.error = strCat("validate: ", e.what());
    } catch (const std::exception &e) {
        res.failed = true;
        res.error = strCat("run: ", e.what());
    }
    res.run_s = nowSeconds() - t;
    if (res.failed)
        return;
    std::vector<std::string> fails;
    try {
        def.inspect(s, res.out, fails);
        res.counts = readCounts(s);
    } catch (const std::exception &e) {
        fails.push_back(strCat("inspect: ", e.what()));
    }
    for (uint32_t i = 0; i < s.numApps(); ++i) {
        const workload::FioJob &job = s.app(i);
        double in_flight = static_cast<double>(job.windowIos()) *
                           job.latency().mean() /
                           static_cast<double>(s.windowNs());
        auto depth = static_cast<uint32_t>(std::llround(in_flight));
        if (job.windowIos() > 0)
            depth = std::max(depth, 1u);
        res.depths.push_back(std::min(depth, job.spec().iodepth));
    }
    if (!fails.empty()) {
        res.failed = true;
        res.error = "paper shape:";
        for (const std::string &f : fails)
            res.error += strCat(" ", f, ";");
    }
    res.digest_line = digestLine(def.name, res.out, res.counts);
}

/** Runs `fn(i)` for every scenario on `jobs` workers; host seconds. */
double
parallelFor(size_t n, uint32_t jobs, const std::function<void(size_t)> &fn)
{
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i)
        tasks.push_back([&fn, i] { fn(i); });
    double t0 = nowSeconds();
    sweep::run(std::move(tasks), jobs);
    return nowSeconds() - t0;
}

/**
 * Untraced pass: construct every scenario (the set-up phase), then run
 * them all (the run phase). The phases do not overlap. setup_s sums the
 * scenarios' own set-up times rather than timing the phase, so it does
 * not depend on how the pool happens to spread a few short tasks.
 */
Round
untracedRound(const std::vector<ScenarioDef> &defs, uint32_t jobs)
{
    Round r;
    r.results.resize(defs.size());
    std::vector<std::unique_ptr<Scenario>> live(defs.size());
    r.setup_wall_s = parallelFor(defs.size(), jobs, [&](size_t i) {
        live[i] = build(defs[i], r.results[i]);
    });
    for (const ScenarioResult &res : r.results)
        r.setup_s += res.setup_s;
    r.wall_s = parallelFor(defs.size(), jobs, [&](size_t i) {
        if (live[i])
            runOne(defs[i], *live[i], r.results[i]);
    });
    live.clear();
    sweep::clearProfiles();
    return r;
}

/**
 * Traced pass. Like the untraced round, every phase runs all scenarios
 * side by side, so each layer's span sees the same contention: build the
 * blk drivers, run them; build the ssd drivers (preconditioning is their
 * set-up), run them; run the sim drivers; build fresh full scenarios,
 * run them. Fills `traces` and `results`; returns the pass's host
 * seconds.
 */
double
tracedRound(const std::vector<ScenarioDef> &defs, uint32_t jobs,
            const Round &untraced, std::vector<Trace> &traces,
            std::vector<ScenarioResult> &results)
{
    const size_t n = defs.size();
    traces.assign(n, Trace{});
    results.assign(n, ScenarioResult{});
    for (size_t i = 0; i < n; ++i) {
        if (untraced.results[i].failed)
            results[i] = untraced.results[i];
    }
    // Runs `step(i)` for every scenario that has not failed yet.
    auto phase = [&](const std::function<void(size_t)> &step) {
        parallelFor(n, jobs, [&](size_t i) {
            if (results[i].failed)
                return;
            try {
                step(i);
            } catch (const std::exception &e) {
                results[i].failed = true;
                results[i].error = strCat("trace driver: ", e.what());
            }
        });
    };
    auto base = [&](size_t i) -> const ScenarioResult & {
        return untraced.results[i];
    };

    std::vector<std::unique_ptr<BlkDriver>> blk(n);
    std::vector<std::unique_ptr<SsdDriver>> ssd(n);
    std::vector<std::unique_ptr<Scenario>> live(n);
    double t0 = nowSeconds();
    phase([&](size_t i) {
        blk[i] = std::make_unique<BlkDriver>(defs[i], base(i).depths);
    });
    phase([&](size_t i) { traces[i].blk = blk[i]->run(base(i).counts.ios); });
    std::vector<std::vector<workload::JobSpec>> specs(n);
    for (size_t i = 0; i < n; ++i) {
        if (blk[i])
            specs[i] = blk[i]->specs();
    }
    blk.clear();
    phase([&](size_t i) {
        ssd[i] = std::make_unique<SsdDriver>(defs[i], specs[i],
                                             base(i).depths);
        traces[i].precondition_s = ssd[i]->setupSeconds();
    });
    phase([&](size_t i) { traces[i].ssd = ssd[i]->run(base(i).counts.ios); });
    ssd.clear();
    phase([&](size_t i) {
        traces[i].sim_s = runSimDriver(base(i).counts.events,
                                       base(i).counts.peak_depth,
                                       defs[i].cfg.seed);
    });
    phase([&](size_t i) { live[i] = build(defs[i], results[i]); });
    phase([&](size_t i) {
        if (!live[i])
            return;
        runOne(defs[i], *live[i], results[i]);
        traces[i].populate_s = results[i].populate_s;
        traces[i].full_s = results[i].run_s;
    });
    double wall = nowSeconds() - t0;
    live.clear();
    sweep::clearProfiles();
    return wall;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Per-io self times of one traced scenario, in ns. */
struct SelfTimes
{
    double sim_per_event = 0.0;
    double ssd = 0.0;
    double blk = 0.0;
    double job = 0.0;
};

SelfTimes
selfTimes(const Trace &tr, const Counts &c)
{
    SelfTimes st;
    auto per = [](double s, uint64_t n) {
        return n > 0 ? s * 1e9 / static_cast<double>(n) : 0.0;
    };
    st.sim_per_event = per(tr.sim_s, c.events);
    double ssd_span = per(tr.ssd.seconds, tr.ssd.ios);
    double blk_span = per(tr.blk.seconds, tr.blk.ios);
    double full_span = per(tr.full_s, c.ios);
    // The sim driver's span, scaled to the events the ssd driver ran.
    double sim_span = tr.ssd.ios > 0
                          ? st.sim_per_event *
                                static_cast<double>(tr.ssd.events) /
                                static_cast<double>(tr.ssd.ios)
                          : 0.0;
    st.ssd = ssd_span - sim_span;
    st.blk = blk_span - ssd_span;
    st.job = full_span - blk_span;
    return st;
}

/** One traced round's per-layer host times, summed over scenarios. */
struct LayerSample
{
    double precondition_s = 0.0;
    double cgroup_s = 0.0;
    double sim_ns_per_event = 0.0;
    double ssd_ns = 0.0; //!< self times per simulated I/O
    double blk_ns = 0.0;
    double job_ns = 0.0;
};

/** Self times are weighted by each scenario's events or I/Os. */
LayerSample
layerSample(const Round &untraced, const std::vector<Trace> &traces)
{
    LayerSample ls;
    double events = 0.0, ios = 0.0;
    for (size_t i = 0; i < traces.size(); ++i) {
        const Counts &c = untraced.results[i].counts;
        SelfTimes st = selfTimes(traces[i], c);
        auto ev_i = static_cast<double>(c.events);
        auto ios_i = static_cast<double>(c.ios);
        ls.precondition_s += traces[i].precondition_s;
        ls.cgroup_s += traces[i].populate_s;
        ls.sim_ns_per_event += st.sim_per_event * ev_i;
        ls.ssd_ns += st.ssd * ios_i;
        ls.blk_ns += st.blk * ios_i;
        ls.job_ns += st.job * ios_i;
        events += ev_i;
        ios += ios_i;
    }
    ls.sim_ns_per_event /= std::max(events, 1.0);
    ls.ssd_ns /= std::max(ios, 1.0);
    ls.blk_ns /= std::max(ios, 1.0);
    ls.job_ns /= std::max(ios, 1.0);
    return ls;
}

/** Deterministic per-layer counts of a whole workload. */
struct Totals
{
    Counts sum; //!< summed counts; die/waf/cpu/ctx are means
    uint64_t max_peak_depth = 0;
    double worst_events_per_io = 0.0;
    std::string digest_text;
};

/** Prints the per-scenario table of a round and folds its counts. */
Totals
summarize(const std::vector<ScenarioDef> &defs, const Round &round)
{
    std::printf("%-28s %10s %9s %10s %9s %9s %7s\n", "scenario", "sim_ios",
                "events/io", "host_us/io", "agg_GiB/s", "lc_p99_us",
                "jain");
    Totals t;
    auto n = static_cast<double>(defs.size());
    for (size_t i = 0; i < defs.size(); ++i) {
        const ScenarioResult &res = round.results[i];
        const Counts &c = res.counts;
        double ios = std::max(static_cast<double>(c.ios), 1.0);
        double epi = static_cast<double>(c.events) / ios;
        std::printf("%-28s %10llu %9.2f %10.3f %9.3f %9.1f %7.4f\n",
                    defs[i].name.c_str(),
                    static_cast<unsigned long long>(c.ios), epi,
                    res.run_s * 1e6 / ios, res.out.agg_gibs,
                    res.out.lc_p99_us, res.out.jain);
        t.digest_text += res.digest_line;
        t.sum.ios += c.ios;
        t.sum.events += c.events;
        t.sum.bookkeeping += c.bookkeeping;
        t.sum.blk_completed += c.blk_completed;
        t.sum.iomax_throttled += c.iomax_throttled;
        t.sum.iocost_throttled += c.iocost_throttled;
        t.sum.gc_pages += c.gc_pages;
        t.sum.erases += c.erases;
        t.sum.groups += c.groups;
        t.sum.die_util += c.die_util / n;
        t.sum.waf += c.waf / n;
        t.sum.cpu_util += c.cpu_util / n;
        t.sum.ctx_per_io += c.ctx_per_io / n;
        t.max_peak_depth = std::max(t.max_peak_depth, c.peak_depth);
        t.worst_events_per_io = std::max(t.worst_events_per_io, epi);
    }
    return t;
}

/** Collects metrics as JSON and echoes each one for people. */
class JsonMetrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += strCat("\"", name, "\": {\"value\": ", buf,
                        ", \"unit\": \"", unit, "\"}");
        std::printf("  %-28s %14.6g %s\n", name.c_str(), value,
                    unit.c_str());
    }

    void
    count(const std::string &name, uint64_t value)
    {
        add(name, static_cast<double>(value), "count");
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
compilerName()
{
#if defined(__clang__)
    return strCat("clang-", __clang_major__, ".", __clang_minor__);
#elif defined(__GNUC__)
    return strCat("gcc-", __VERSION__);
#else
    return "unknown";
#endif
}

double
ratio(uint64_t a, uint64_t b)
{
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

template <typename T, typename F>
double
medianOf(const std::vector<T> &samples, F field)
{
    std::vector<double> v;
    v.reserve(samples.size());
    for (const T &s : samples)
        v.push_back(field(s));
    return median(std::move(v));
}

/** One untraced round's end-to-end measurements. */
struct E2eSample
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    double ios_per_s = 0.0;
    double worst_us = 0.0;
};

int
benchMain(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    std::vector<ScenarioDef> defs = workloadScenarios(opt.workload, opt.seed);
    if (defs.empty()) {
        std::string known;
        for (const std::string &name : workloadNames())
            known += strCat(known.empty() ? "" : ", ", name);
        usage(strCat("unknown workload '", opt.workload, "' (known: ", known,
                     ")"));
    }

    std::printf("# hostbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("# build commit=%s compiler=%s build_type=%s nproc=%u "
                "jobs=%u\n",
                opt.commit.c_str(), compilerName().c_str(),
                HOSTBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                opt.jobs);

    const size_t n = defs.size();
    double deadline = nowSeconds() + opt.seconds;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t validate_failures = 0;
    bool deterministic = true;
    bool trace_counts_identical = true;
    Round first;
    double peak_rss = 0.0;
    std::vector<E2eSample> e2e;
    std::vector<LayerSample> layers;
    std::vector<double> traced_wall, overhead_s;

    auto account = [&](const std::vector<ScenarioResult> &results,
                       const char *pass) {
        for (size_t i = 0; i < n; ++i) {
            ++attempted;
            if (results[i].validate_failed)
                ++validate_failures;
            if (results[i].failed) {
                ++failed;
                std::printf("FAILED %s [%s]: %s\n", defs[i].name.c_str(),
                            pass, results[i].error.c_str());
            }
        }
    };

    for (size_t round = 0;; ++round) {
        Round r = untracedRound(defs, opt.jobs);
        account(r.results, "untraced");
        E2eSample es;
        es.setup_s = r.setup_s;
        es.wall_s = r.wall_s;
        uint64_t ios = 0;
        for (size_t i = 0; i < n; ++i) {
            const ScenarioResult &res = r.results[i];
            ios += res.counts.ios;
            if (res.counts.ios > 0) {
                es.worst_us = std::max(
                    es.worst_us,
                    res.run_s * 1e6 / static_cast<double>(res.counts.ios));
            }
            if (round > 0 &&
                res.digest_line != first.results[i].digest_line) {
                deterministic = false;
                std::printf("NONDETERMINISTIC %s: round %zu differs\n",
                            defs[i].name.c_str(), round);
            }
        }
        es.ios_per_s = static_cast<double>(ios) / r.wall_s;
        e2e.push_back(es);

        if (opt.trace) {
            std::vector<Trace> traces;
            std::vector<ScenarioResult> traced;
            double tw = tracedRound(defs, opt.jobs, r, traces, traced);
            account(traced, "traced");
            for (size_t i = 0; i < n; ++i) {
                if (traced[i].digest_line != r.results[i].digest_line) {
                    trace_counts_identical = false;
                    std::printf("TRACE MISMATCH %s: traced counts differ\n",
                                defs[i].name.c_str());
                }
            }
            traced_wall.push_back(tw);
            overhead_s.push_back(tw - (r.setup_wall_s + r.wall_s));
            layers.push_back(layerSample(r, traces));
        }
        if (round == 0) {
            // Later rounds only add allocator churn, so the first
            // round's high-water mark is the workload's footprint.
            peak_rss = peakRssMib();
            first = std::move(r);
        }
        if (nowSeconds() >= deadline)
            break;
    }
    bool correct = failed == 0 && deterministic && trace_counts_identical;

    Totals t = summarize(defs, first);
    std::printf("sim_stats_digest=%016llx\n",
                static_cast<unsigned long long>(fnv1a(t.digest_text)));
    std::printf("rounds=%zu attempted=%llu failed=%llu failed_share=%g\n",
                e2e.size(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                ratio(failed, attempted));

    JsonMetrics m;
    if (!opt.trace) {
        m.add("wall_s", medianOf(e2e, [](auto &e) { return e.wall_s; }),
              "s");
        m.add("sim_ios_per_host_s",
              medianOf(e2e, [](auto &e) { return e.ios_per_s; }), "IO/s");
        m.add("host_us_per_io_worst",
              medianOf(e2e, [](auto &e) { return e.worst_us; }), "us");
        m.add("setup_s", medianOf(e2e, [](auto &e) { return e.setup_s; }),
              "s");
        m.add("peak_rss_mib", peak_rss, "MiB");
    } else {
        std::printf("trace_counts_identical=%s\n",
                    trace_counts_identical ? "true" : "false");
        const Counts &c = t.sum;
        m.count("sim.ios", c.ios);
        m.count("sim.events", c.events);
        m.add("sim.events_per_io", ratio(c.events, c.ios), "ratio");
        m.add("sim.events_per_io_worst", t.worst_events_per_io, "ratio");
        m.count("sim.peak_queue_depth", t.max_peak_depth);
        m.add("sim.host_ns_per_event",
              medianOf(layers, [](auto &l) { return l.sim_ns_per_event; }),
              "ns");
        m.add("blk.bookkeeping_per_io", ratio(c.bookkeeping, c.blk_completed),
              "ratio");
        m.count("blk.iomax_throttled", c.iomax_throttled);
        m.count("blk.iocost_throttled", c.iocost_throttled);
        m.add("blk.host_ns_per_io",
              medianOf(layers, [](auto &l) { return l.blk_ns; }), "ns");
        m.add("ssd.host_ns_per_io",
              medianOf(layers, [](auto &l) { return l.ssd_ns; }), "ns");
        m.add("ssd.die_util", c.die_util, "ratio");
        m.add("ssd.waf", c.waf, "ratio");
        m.add("ssd.gc_pages_per_io", ratio(c.gc_pages, c.ios), "ratio");
        m.count("ssd.erases", c.erases);
        m.add("ssd.precondition_s",
              medianOf(layers, [](auto &l) { return l.precondition_s; }),
              "s");
        m.count("cgroup.groups", c.groups);
        m.add("cgroup.setup_s",
              medianOf(layers, [](auto &l) { return l.cgroup_s; }), "s");
        m.add("host.cpu_util", c.cpu_util, "ratio");
        m.add("host.ctx_per_io", c.ctx_per_io, "ratio");
        m.add("job.host_ns_per_io",
              medianOf(layers, [](auto &l) { return l.job_ns; }), "ns");
        m.count("isolbench.scenarios", n);
        m.count("isolbench.validate_failures", validate_failures);
        m.add("trace.wall_s", median(traced_wall), "s");
        m.add("trace.overhead_s", median(overhead_s), "s");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.str().c_str());
    return 0;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    return hostbench::benchMain(argc, argv);
}
