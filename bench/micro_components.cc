/**
 * @file
 * google-benchmark micro benchmarks for the simulator components: event
 * queue throughput, histogram recording and percentile queries, FTL
 * write/GC bookkeeping, iocost accounting, and a small end-to-end
 * simulation — so performance regressions in the substrate are visible.
 *
 * In addition to the google-benchmark suite, main() hand-times the
 * schedule/pop/cancel mix (>= 1M events) on both the current EventQueue
 * and a frozen copy of the seed implementation, plus an end-to-end
 * parallel sweep, and writes the results to BENCH_micro.json so the
 * perf trajectory (and the queue-redesign speedup) is tracked across
 * PRs.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_set>

#include "bench_util.hh"
#include "blk/qos_cost.hh"
#include "cgroup/cgroup.hh"
#include "common/alloc_hook.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"
#include "ssd/ftl.hh"
#include "stats/histogram.hh"

using namespace isol;

namespace
{

/**
 * The seed's event queue (std::priority_queue<std::function> + an
 * unordered_set cancellation side-table), kept verbatim as the baseline
 * the BENCH_micro.json speedup is measured against.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    uint64_t
    schedule(SimTime when, Callback cb)
    {
        uint64_t id = next_id_++;
        heap_.push(Event{when, id, std::move(cb)});
        return id;
    }

    bool
    cancel(uint64_t id)
    {
        if (id == 0 || id >= next_id_)
            return false;
        return cancelled_.insert(id).second;
    }

    bool
    empty()
    {
        skipCancelled();
        return heap_.empty();
    }

    std::pair<SimTime, Callback>
    pop()
    {
        skipCancelled();
        Event &top = const_cast<Event &>(heap_.top());
        std::pair<SimTime, Callback> out{top.when, std::move(top.cb)};
        heap_.pop();
        return out;
    }

  private:
    struct Event
    {
        SimTime when;
        uint64_t id;
        Callback cb;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };

    void
    skipCancelled()
    {
        while (!heap_.empty()) {
            auto it = cancelled_.find(heap_.top().id);
            if (it == cancelled_.end())
                break;
            cancelled_.erase(it);
            heap_.pop();
        }
    }

    std::priority_queue<Event, std::vector<Event>, Later> heap_;
    std::unordered_set<uint64_t> cancelled_;
    uint64_t next_id_ = 1;
};

/**
 * The 4-ary slotted heap the timing wheel replaced, kept verbatim as the
 * second baseline: the wheel's acceptance bar is >= 2x over this heap on
 * clustered short-horizon workloads, and BENCH_micro.json records the
 * ratio per horizon distribution.
 */
class HeapEventQueue
{
  public:
    using Callback = sim::SmallCallback;

    HeapEventQueue() = default;
    HeapEventQueue(const HeapEventQueue &) = delete;
    HeapEventQueue &operator=(const HeapEventQueue &) = delete;

    uint64_t
    schedule(SimTime when, Callback cb)
    {
        uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            slot = static_cast<uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        Slot &s = slots_[slot];
        s.cb = std::move(cb);
        s.state = State::kPending;
        heap_.push_back(Key{when, next_seq_++, slot});
        siftUp(heap_.size() - 1);
        ++live_;
        return (static_cast<uint64_t>(slot) + 1) << 32 | s.gen;
    }

    bool
    cancel(uint64_t id)
    {
        uint64_t hi = id >> 32;
        if (hi == 0)
            return false;
        auto slot = static_cast<uint32_t>(hi - 1);
        auto gen = static_cast<uint32_t>(id);
        if (slot >= slots_.size())
            return false;
        Slot &s = slots_[slot];
        if (s.state != State::kPending || s.gen != gen)
            return false;
        s.cb.reset();
        s.state = State::kCancelled;
        ++s.gen;
        --live_;
        return true;
    }

    bool empty() const { return live_ == 0; }

    std::pair<SimTime, Callback>
    pop()
    {
        skipCancelled();
        const Key top = heap_.front();
        Slot &s = slots_[top.slot];
        std::pair<SimTime, Callback> out{top.when, std::move(s.cb)};
        freeSlot(top.slot);
        removeTop();
        --live_;
        return out;
    }

  private:
    enum class State : uint8_t { kFree, kPending, kCancelled };
    struct Key
    {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
    };
    struct Slot
    {
        Callback cb;
        uint32_t gen = 0;
        State state = State::kFree;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    void
    siftUp(size_t i)
    {
        Key key = heap_[i];
        while (i > 0) {
            size_t parent = (i - 1) / 4;
            if (!before(key, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = key;
    }

    void
    siftDown(size_t i)
    {
        Key key = heap_[i];
        size_t n = heap_.size();
        for (;;) {
            size_t first = i * 4 + 1;
            if (first >= n)
                break;
            size_t best = first;
            size_t last = first + 4 < n ? first + 4 : n;
            for (size_t c = first + 1; c < last; ++c) {
                if (before(heap_[c], heap_[best]))
                    best = c;
            }
            if (!before(heap_[best], key))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = key;
    }

    void
    removeTop()
    {
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }

    void
    freeSlot(uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.state = State::kFree;
        ++s.gen;
        free_.push_back(slot);
    }

    void
    skipCancelled()
    {
        while (!heap_.empty()) {
            Slot &s = slots_[heap_.front().slot];
            if (s.state != State::kCancelled)
                break;
            freeSlot(heap_.front().slot);
            removeTop();
        }
    }

    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    std::vector<uint32_t> free_;
    uint64_t next_seq_ = 0;
    size_t live_ = 0;
};

/** Reschedule-horizon distribution of a queue workload. */
enum class Horizon
{
    kUniform, //!< flat over ~1 ms of simulated time
    kClustered, //!< short timers near now (the DES common case)
    kBimodal, //!< mostly short with a far-future tail
};

constexpr const char *kHorizonNames[] = {"uniform", "clustered",
                                         "bimodal"};

/**
 * Steady-state schedule/pop/cancel mix under a chosen horizon
 * distribution: every iteration pops and reschedules, every eighth
 * schedules a far-future event that a later batch cancels while it is
 * still pending. Returns primitive queue operations performed.
 */
template <typename Queue>
uint64_t
horizonWorkload(Horizon kind, uint64_t iterations, uint64_t depth)
{
    Queue q;
    Rng rng(11);
    uint64_t fired = 0;
    uint64_t ops = 0;
    auto next = [&](SimTime now) -> SimTime {
        switch (kind) {
          case Horizon::kUniform:
            return now + 1 + static_cast<SimTime>(rng.below(1 << 20));
          case Horizon::kClustered:
            return now + 1 + static_cast<SimTime>(rng.below(2000));
          case Horizon::kBimodal:
            return rng.below(10) < 8
                       ? now + 1 + static_cast<SimTime>(rng.below(500))
                       : now + 500000 +
                             static_cast<SimTime>(rng.below(5000));
        }
        return now + 1;
    };
    std::vector<uint64_t> cancellable;
    cancellable.reserve(32);
    for (uint64_t i = 0; i < depth; ++i) {
        q.schedule(next(0), [&fired] { ++fired; });
        ++ops;
    }
    for (uint64_t i = 0; i < iterations; ++i) {
        auto [now, cb] = q.pop();
        cb();
        ++ops;
        q.schedule(next(now), [&fired] { ++fired; });
        ++ops;
        if ((i & 7) == 0) {
            cancellable.push_back(q.schedule(next(now) + 10000000,
                                             [&fired] { ++fired; }));
            ++ops;
            if (cancellable.size() >= 32) {
                for (uint64_t id : cancellable) {
                    q.cancel(id);
                    ++ops;
                }
                cancellable.clear();
            }
        }
    }
    while (!q.empty()) {
        q.pop().second();
        ++ops;
    }
    return ops;
}

/**
 * The schedule/pop/cancel mix both queue implementations are timed on:
 * a steady-state queue of ~1280 events where every iteration pops and
 * reschedules, and every fourth iteration schedules a far-future event
 * that is later cancelled while still pending. Returns the number of
 * primitive queue operations performed.
 */
template <typename Queue>
uint64_t
mixedQueueWorkload(uint64_t iterations, uint64_t *fired_out = nullptr)
{
    Queue q;
    Rng rng(7);
    uint64_t fired = 0;
    uint64_t ops = 0;
    std::vector<uint64_t> cancellable;
    cancellable.reserve(16);

    for (int i = 0; i < 1024; ++i) {
        q.schedule(static_cast<SimTime>(rng.below(1000)),
                   [&fired] { ++fired; });
        ++ops;
    }
    for (uint64_t i = 0; i < iterations; ++i) {
        auto [now, cb] = q.pop();
        cb();
        ++ops;
        q.schedule(now + 1 + static_cast<SimTime>(rng.below(1000)),
                   [&fired] { ++fired; });
        ++ops;
        if ((i & 3) == 0) {
            // Far enough out that the id is still pending when the
            // batch below cancels it.
            cancellable.push_back(q.schedule(
                now + 100000 + static_cast<SimTime>(rng.below(1000)),
                [&fired] { ++fired; }));
            ++ops;
            if (cancellable.size() >= 16) {
                for (uint64_t id : cancellable) {
                    q.cancel(id);
                    ++ops;
                }
                cancellable.clear();
            }
        }
    }
    while (!q.empty()) {
        q.pop().second();
        ++ops;
    }
    if (fired_out != nullptr)
        *fired_out = fired;
    return ops;
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int fired = 0;
        for (int i = 0; i < 1024; ++i)
            sim.at(i * 100, [&fired] { ++fired; });
        sim.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueCascade(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int depth = 0;
        std::function<void()> chain = [&] {
            if (++depth < 4096)
                sim.after(nsToNs(10), chain);
        };
        sim.after(nsToNs(10), chain);
        sim.runAll();
        benchmark::DoNotOptimize(depth);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCascade);

void
BM_EventQueueMixed(benchmark::State &state)
{
    uint64_t ops = 0;
    for (auto _ : state)
        ops += mixedQueueWorkload<sim::EventQueue>(1 << 20);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_EventQueueMixed)->Unit(benchmark::kMillisecond);

void
BM_LegacyEventQueueMixed(benchmark::State &state)
{
    uint64_t ops = 0;
    for (auto _ : state)
        ops += mixedQueueWorkload<LegacyEventQueue>(1 << 20);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_LegacyEventQueueMixed)->Unit(benchmark::kMillisecond);

void
BM_EventQueueHorizon(benchmark::State &state)
{
    auto kind = static_cast<Horizon>(state.range(0));
    uint64_t ops = 0;
    for (auto _ : state)
        ops += horizonWorkload<sim::EventQueue>(kind, 1 << 18, 8192);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
    state.SetLabel(kHorizonNames[state.range(0)]);
}
BENCHMARK(BM_EventQueueHorizon)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_HeapEventQueueHorizon(benchmark::State &state)
{
    auto kind = static_cast<Horizon>(state.range(0));
    uint64_t ops = 0;
    for (auto _ : state)
        ops += horizonWorkload<HeapEventQueue>(kind, 1 << 18, 8192);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
    state.SetLabel(kHorizonNames[state.range(0)]);
}
BENCHMARK(BM_HeapEventQueueHorizon)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/** One tiny end-to-end scenario, as the sweep-throughput work unit. */
uint64_t
runMiniScenario(uint64_t seed)
{
    isolbench::ScenarioConfig cfg;
    cfg.name = strCat("micro-sweep-", seed);
    cfg.knob = isolbench::Knob::kIoCost;
    cfg.num_cores = 4;
    cfg.duration = msToNs(60);
    cfg.warmup = msToNs(20);
    cfg.seed = seed;
    isolbench::Scenario scenario(cfg);
    scenario.addApp(workload::lcApp("lc", cfg.duration), "lc");
    scenario.addApp(workload::beApp("be", cfg.duration), "be");
    scenario.run();
    return scenario.sim().eventsExecuted();
}

void
BM_SweepFanout(benchmark::State &state)
{
    uint64_t events = 0;
    for (auto _ : state) {
        // isol: parallel
        auto per_run = isolbench::sweep::map<uint64_t>(
            8, [](size_t i) { return runMiniScenario(i + 1); });
        for (uint64_t e : per_run)
            events += e;
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SweepFanout)->Unit(benchmark::kMillisecond);

void
BM_HistogramRecord(benchmark::State &state)
{
    stats::Histogram hist;
    Rng rng(1);
    for (auto _ : state)
        hist.record(static_cast<int64_t>(rng.below(10000000)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void
BM_HistogramPercentile(benchmark::State &state)
{
    stats::Histogram hist;
    Rng rng(1);
    for (int i = 0; i < 100000; ++i)
        hist.record(static_cast<int64_t>(rng.below(10000000)));
    for (auto _ : state)
        benchmark::DoNotOptimize(hist.percentile(99.0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramPercentile);

void
BM_FtlRandomWrite(benchmark::State &state)
{
    ssd::SsdConfig cfg = ssd::samsung980ProLike();
    cfg.user_capacity = 256 * MiB;
    cfg.channels = 4;
    cfg.dies_per_channel = 4;
    ssd::Ftl ftl(cfg);
    Rng rng(1);
    ftl.preconditionSequentialFill(1.0);
    // Whole batches, so the batched, prefetched overwrite path is timed.
    constexpr int64_t kPagesPerIteration = 1024;
    for (auto _ : state)
        ftl.preconditionRandomOverwrite(kPagesPerIteration, rng);
    state.SetItemsProcessed(state.iterations() * kPagesPerIteration);
}
BENCHMARK(BM_FtlRandomWrite);

void
BM_IoCostAbsCost(benchmark::State &state)
{
    sim::Simulator sim;
    cgroup::CgroupTree tree;
    blk::IoCostGate gate(sim, 0, tree, [](blk::Request *) {});
    blk::Request req;
    req.op = OpType::kRead;
    req.size = 4096;
    for (auto _ : state)
        benchmark::DoNotOptimize(gate.absCost(req));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IoCostAbsCost);

void
BM_SsdRandomRead4k(benchmark::State &state)
{
    // Whole-device random-read throughput: events per simulated I/O.
    for (auto _ : state) {
        sim::Simulator sim;
        ssd::SsdDevice dev(sim, ssd::samsung980ProLike(), 3);
        Rng rng(3);
        uint64_t completed = 0;
        std::function<void()> issue = [&] {
            uint64_t off = rng.below(2097152) * 4096;
            dev.submit(OpType::kRead, off, 4096, [&] {
                ++completed;
                if (sim.now() < msToNs(5))
                    issue();
            });
        };
        for (int i = 0; i < 256; ++i)
            issue();
        sim.runUntil(msToNs(5));
        benchmark::DoNotOptimize(completed);
        state.SetItemsProcessed(
            static_cast<int64_t>(sim.eventsExecuted()));
    }
}
BENCHMARK(BM_SsdRandomRead4k)->Unit(benchmark::kMillisecond);

/** Best-of-three wall time (seconds) for `fn()`. */
template <typename Fn>
double
bestOfThree(Fn fn)
{
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        double start_ms = isolbench::sweep::monotonicMs();
        fn();
        double wall_s =
            (isolbench::sweep::monotonicMs() - start_ms) / 1e3;
        if (wall_s < best)
            best = wall_s;
    }
    return best;
}

/** One horizon-distribution comparison row of BENCH_micro.json. */
struct HorizonResult
{
    uint64_t ops = 0;
    double heap_ops_per_sec = 0;
    double wheel_ops_per_sec = 0;
    double wheel_allocs_per_op = 0;
};

HorizonResult
measureHorizon(Horizon kind, uint64_t iterations, uint64_t depth)
{
    HorizonResult r;
    double heap_s = bestOfThree([&] {
        r.ops = horizonWorkload<HeapEventQueue>(kind, iterations, depth);
    });
    double wheel_s = bestOfThree([&] {
        r.ops = horizonWorkload<sim::EventQueue>(kind, iterations, depth);
    });
    r.heap_ops_per_sec = static_cast<double>(r.ops) / heap_s;
    r.wheel_ops_per_sec = static_cast<double>(r.ops) / wheel_s;
    if (common::allocCountingEnabled()) {
        common::resetAllocCounters();
        horizonWorkload<sim::EventQueue>(kind, iterations, depth);
        r.wheel_allocs_per_op =
            static_cast<double>(common::allocCounters().allocs) /
            static_cast<double>(r.ops);
    }
    return r;
}

/**
 * Hand-timed queue comparison + end-to-end sweep throughput, written to
 * BENCH_micro.json. Kept outside google-benchmark so the JSON schema
 * (in particular the legacy-vs-current speedup) is stable for trackers.
 */
void
writeMicroJson(const char *path)
{
    constexpr uint64_t kIterations = 1 << 20; // >= 1M mixed events
    uint64_t ops = 0;
    double legacy_s =
        bestOfThree([&] { ops = mixedQueueWorkload<LegacyEventQueue>(
                              kIterations); });
    double heap_s =
        bestOfThree([&] { ops = mixedQueueWorkload<HeapEventQueue>(
                              kIterations); });
    double current_s =
        bestOfThree([&] { ops = mixedQueueWorkload<sim::EventQueue>(
                              kIterations); });
    double legacy_ops_per_sec = static_cast<double>(ops) / legacy_s;
    double heap_ops_per_sec = static_cast<double>(ops) / heap_s;
    double current_ops_per_sec = static_cast<double>(ops) / current_s;

    // Steady-state population matches a busy sweep (thousands of
    // inflight timers), where the heap pays its log-depth sift on every
    // pop and the wheel stays O(1).
    constexpr uint64_t kHorizonIters = 1 << 19;
    constexpr uint64_t kHorizonDepth = 8192;
    HorizonResult horizons[3];
    for (int k = 0; k < 3; ++k)
        horizons[k] = measureHorizon(static_cast<Horizon>(k),
                                     kHorizonIters, kHorizonDepth);

    isolbench::sweep::clearProfiles();
    uint64_t sweep_events = 0;
    double sweep_s = bestOfThree([&] {
        sweep_events = 0;
        // isol: parallel
        auto per_run = isolbench::sweep::map<uint64_t>(
            8, [](size_t i) { return runMiniScenario(i + 1); });
        for (uint64_t e : per_run)
            sweep_events += e;
    });

    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "warning: could not write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"event_queue_mixed\": {\n"
                 "    \"ops\": %llu,\n"
                 "    \"legacy_ops_per_sec\": %.0f,\n"
                 "    \"heap_ops_per_sec\": %.0f,\n"
                 "    \"current_ops_per_sec\": %.0f,\n"
                 "    \"speedup_vs_seed\": %.3f,\n"
                 "    \"speedup_vs_heap\": %.3f\n"
                 "  },\n"
                 "  \"event_queue_horizons\": {\n"
                 "    \"iterations\": %llu,\n"
                 "    \"depth\": %llu,\n",
                 static_cast<unsigned long long>(ops),
                 legacy_ops_per_sec, heap_ops_per_sec,
                 current_ops_per_sec,
                 current_ops_per_sec / legacy_ops_per_sec,
                 current_ops_per_sec / heap_ops_per_sec,
                 static_cast<unsigned long long>(kHorizonIters),
                 static_cast<unsigned long long>(kHorizonDepth));
    for (int k = 0; k < 3; ++k) {
        const HorizonResult &r = horizons[k];
        std::fprintf(f,
                     "    \"%s\": {\n"
                     "      \"ops\": %llu,\n"
                     "      \"heap_ops_per_sec\": %.0f,\n"
                     "      \"wheel_ops_per_sec\": %.0f,\n"
                     "      \"speedup_vs_heap\": %.3f,\n"
                     "      \"wheel_allocs_per_op\": %.6f\n"
                     "    }%s\n",
                     kHorizonNames[k],
                     static_cast<unsigned long long>(r.ops),
                     r.heap_ops_per_sec, r.wheel_ops_per_sec,
                     r.wheel_ops_per_sec / r.heap_ops_per_sec,
                     r.wheel_allocs_per_op, k == 2 ? "" : ",");
    }
    std::fprintf(f,
                 "  },\n"
                 "  \"alloc_counting\": %s,\n"
                 "  \"sweep_end_to_end\": {\n"
                 "    \"scenarios\": 8,\n"
                 "    \"jobs\": %u,\n"
                 "    \"events\": %llu,\n"
                 "    \"wall_s\": %.4f,\n"
                 "    \"events_per_sec\": %.0f\n"
                 "  }\n"
                 "}\n",
                 common::allocCountingEnabled() ? "true" : "false",
                 isolbench::sweep::defaultJobs(),
                 static_cast<unsigned long long>(sweep_events), sweep_s,
                 static_cast<double>(sweep_events) / sweep_s);
    std::fclose(f);
    std::printf("BENCH_micro.json: event-queue speedup vs seed %.2fx, "
                "vs 4-ary heap %.2fx (%.1f -> %.1f Mops/s); clustered "
                "horizon vs heap %.2fx; sweep %.2f Mevents/s\n",
                current_ops_per_sec / legacy_ops_per_sec,
                current_ops_per_sec / heap_ops_per_sec,
                heap_ops_per_sec / 1e6, current_ops_per_sec / 1e6,
                horizons[1].wheel_ops_per_sec /
                    horizons[1].heap_ops_per_sec,
                static_cast<double>(sweep_events) / sweep_s / 1e6);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    // Anything google-benchmark did not consume goes through the shared
    // bench flags (--jobs & task guards), which abort on real typos.
    bench::parseArgs(argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeMicroJson(bench::outPath("BENCH_micro.json").c_str());
    return 0;
}
