/**
 * @file
 * Fleet-scale hierarchical cgroup stress bench.
 *
 * Kubernetes-style consolidation pushes cgroup counts far beyond the
 * paper's 16-tenant sweeps: a single NVMe node can host O(1000) pods
 * under several layers of slice groups. This bench sweeps 64/256/1024
 * tenants arranged in 2–4-level trees (root -> pod -> rack -> row ->
 * tenant), with heterogeneous per-tenant workloads drawn from a seeded
 * RNG and one misbehaving adversary per top-level pod subtree, and
 * measures how the knobs' per-cgroup bookkeeping scales:
 *
 *  - io.cost: hierarchical weights on every level (weight-split across
 *    child subtrees);
 *  - io.max: interior limits on the pod groups (shared subtree token
 *    buckets), leaves unlimited.
 *
 * stdout prints deterministic results only (GiB/s, event counts, gate
 * bookkeeping share); wall-clock events/sec lands in BENCH_sweep.json
 * via the sweep self-profiler, keyed by the scenario name
 * ("fleet_t<N>_d<L>_<knob>") so tools/perf_gate.py can enforce an
 * events/sec floor on the 1024-tenant configuration.
 *
 * Environment:
 *   ISOL_FLEET_TENANTS=N   run only the N-tenant grid points (CI smoke)
 *   ISOL_BENCH_QUICK=1     drop the 1024-tenant points, shorter runs
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "stats/table.hh"

using namespace isol;
using namespace isol::isolbench;

namespace
{

struct FleetPoint
{
    uint32_t tenants;
    uint32_t levels; //!< tree depth below the root (2..4)
    Knob knob;
};

struct FleetResult
{
    double agg_gibs = 0.0;
    uint64_t events = 0;
    uint64_t bookkeeping_ops = 0;
    uint64_t tracked_groups = 0;
};

/** Leaf path for tenant `i` in a `levels`-deep tree with 8 pods. */
std::string
tenantPath(uint32_t i, uint32_t levels)
{
    uint32_t pod = i % 8;
    uint32_t rack = (i / 8) % 4;
    uint32_t row = (i / 32) % 2;
    switch (levels) {
      case 2: return strCat("pod", pod, "/t", i);
      case 3: return strCat("pod", pod, "/rack", rack, "/t", i);
      default:
        return strCat("pod", pod, "/rack", rack, "/row", row, "/t", i);
    }
}

FleetResult
runFleetPoint(const FleetPoint &pt, SimTime duration, SimTime warmup)
{
    ScenarioConfig cfg;
    cfg.name = strCat("fleet_t", pt.tenants, "_d", pt.levels, "_",
                      knobName(pt.knob));
    cfg.knob = pt.knob;
    cfg.num_cores = 16;
    cfg.duration = duration;
    cfg.warmup = warmup;
    cfg.seed = 11 + pt.tenants * 31 + pt.levels * 7;
    Scenario s(cfg);

    // Heterogeneous tenants: LC probes, small batch readers, and mixed
    // writers, all drawn from one seeded stream so the fleet is
    // reproducible byte-for-byte at any --jobs count.
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 1);
    for (uint32_t i = 0; i < pt.tenants; ++i) {
        std::string path = tenantPath(i, pt.levels);
        workload::JobSpec spec;
        uint64_t roll = rng.below(10);
        if (roll < 5) {
            spec = workload::lcApp(strCat("lc", i), duration);
        } else if (roll < 8) {
            spec = workload::batchApp(strCat("batch", i), duration);
            spec.iodepth = static_cast<uint32_t>(rng.between(2, 8));
            spec.block_size = 16 * KiB;
        } else {
            spec = workload::lcApp(strCat("mix", i), duration);
            spec.read_fraction = 0.7;
            spec.iodepth = 2;
            spec.block_size = 8 * KiB;
        }
        spec.seed = cfg.seed + i * 7919 + 17;
        uint32_t app = s.addApp(std::move(spec), path);
        if (pt.knob == Knob::kIoCost) {
            s.tree().writeFile(s.appGroup(app), "io.weight",
                               strCat(rng.between(50, 200)));
        }
    }

    // One adversary per pod subtree, rotating through the catalog.
    for (uint32_t pod = 0; pod < 8; ++pod) {
        s.addAdversary(workload::kAllAdversaries[
                           pod % std::size(workload::kAllAdversaries)],
                       strCat("pod", pod, "/adv"));
    }

    // Interior knobs: weights on every slice level (io.cost), shared
    // subtree token buckets on the pods (io.max).
    for (uint32_t pod = 0; pod < 8; ++pod) {
        cgroup::Cgroup &pod_cg = s.group(strCat("pod", pod));
        if (pt.knob == Knob::kIoCost) {
            s.tree().writeFile(pod_cg, "io.weight",
                               strCat(100 * (1 + pod % 4)));
        } else if (pt.knob == Knob::kIoMax) {
            s.tree().writeFile(pod_cg, "io.max",
                               strCat("259:0 rbps=", 256 * MiB,
                                      " wbps=", 128 * MiB));
        }
        if (pt.knob == Knob::kIoCost && pt.levels >= 3) {
            for (cgroup::Cgroup *rack : pod_cg.children()) {
                if (rack->name().rfind("rack", 0) == 0) {
                    s.tree().writeFile(*rack, "io.weight",
                                       strCat(rng.between(80, 160)));
                }
            }
        }
    }

    s.run();

    FleetResult res;
    res.agg_gibs = s.aggregateGiBs();
    res.events = s.sim().eventsExecuted();
    for (uint32_t d = 0; d < s.numDevices(); ++d)
        res.bookkeeping_ops += s.device(d).gateBookkeepingOps();
    if (auto *gate = s.device(0).ioCostGate())
        res.tracked_groups = gate->trackedGroups();
    else if (auto *gate_max = s.device(0).ioMaxGate())
        res.tracked_groups = gate_max->trackedGroups();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bool quick = bench::quickMode();
    SimTime duration = quick ? msToNs(120) : msToNs(250);
    SimTime warmup = quick ? msToNs(30) : msToNs(50);

    uint64_t only_tenants = 0;
    if (const char *env = std::getenv("ISOL_FLEET_TENANTS")) {
        if (auto parsed = parseUint(env))
            only_tenants = *parsed;
    }

    std::vector<FleetPoint> grid;
    for (FleetPoint pt : {FleetPoint{64, 2, Knob::kIoCost},
                          FleetPoint{64, 2, Knob::kIoMax},
                          FleetPoint{256, 3, Knob::kIoCost},
                          FleetPoint{256, 3, Knob::kIoMax},
                          FleetPoint{1024, 4, Knob::kIoCost},
                          FleetPoint{1024, 4, Knob::kIoMax}}) {
        if (only_tenants != 0 && pt.tenants != only_tenants)
            continue;
        if (quick && only_tenants == 0 && pt.tenants > 256)
            continue;
        grid.push_back(pt);
    }

    std::printf("Fleet-scale hierarchical cgroup stress: "
                "8 pods, heterogeneous tenants, one adversary per pod\n");

    std::vector<sweep::Task> tasks;
    tasks.reserve(grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        // isol: parallel
        tasks.push_back([&grid, duration, warmup, i]() -> std::string {
            FleetResult res = runFleetPoint(grid[i], duration, warmup);
            double share =
                res.events > 0
                    ? static_cast<double>(res.bookkeeping_ops) /
                          static_cast<double>(res.events)
                    : 0.0;
            return bench::joinRow(
                {strCat(grid[i].tenants), strCat(grid[i].levels),
                 knobName(grid[i].knob), bench::gibs(res.agg_gibs),
                 strCat(res.events), strCat(res.bookkeeping_ops),
                 formatDouble(share, 3), strCat(res.tracked_groups)});
        });
    }
    std::vector<std::string> payloads =
        bench::checkpointedSweep("fleet_scale", tasks);

    stats::Table table({"tenants", "levels", "knob", "agg GiB/s",
                        "events", "bookkeeping", "bk/event", "groups"});
    for (const std::string &payload : payloads) {
        if (!payload.empty())
            table.addRow(bench::splitRow(payload));
    }
    std::fputs(table.toAligned().c_str(), stdout);
    bench::emitSweepReport();
    return 0;
}
