#include "workloads.hh"

#include <iterator>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/d2_fairness.hh"
#include "stats/fairness.hh"
#include "workload/adversary.hh"
#include "workload/app_profiles.hh"

namespace hostbench
{

using namespace isol;
using isol::isolbench::FairnessMix;
using isol::isolbench::Knob;
using isol::isolbench::knobName;

namespace
{

// Simulated run lengths. Long enough that each scenario reaches its
// operating point; short enough that a round of a workload fits several
// times into one benchmark run.
constexpr SimTime kFlatDuration = msToNs(500);
constexpr SimTime kFlatWarmup = msToNs(100);
constexpr SimTime kFleetDuration = msToNs(250);
constexpr SimTime kFleetWarmup = msToNs(50);
constexpr SimTime kGcDuration = msToNs(1000);
constexpr SimTime kGcWarmup = msToNs(300);

constexpr uint32_t kBeApps = 8;
constexpr uint32_t kFleetTenants = 1024;
constexpr uint32_t kFleetPods = 8;
constexpr uint64_t kBeCapBps = GiB; //!< io.max cap on the BE group
constexpr uint64_t kPodRbps = 256 * MiB; //!< interior io.max caps
constexpr uint64_t kPodWbps = 128 * MiB;

void
expect(std::vector<std::string> &fails, bool ok, const std::string &what)
{
    if (!ok)
        fails.push_back(what);
}

ScenarioConfig
baseConfig(const std::string &name, Knob knob, uint64_t seed,
           SimTime duration, SimTime warmup)
{
    ScenarioConfig cfg;
    cfg.name = name;
    cfg.knob = knob;
    cfg.duration = duration;
    cfg.warmup = warmup;
    cfg.seed = seed;
    return cfg;
}

/** A paper-shape check over a scenario's outputs. */
using Check = std::function<void(Scenario &, const Outputs &,
                                 std::vector<std::string> &)>;

/** Bandwidth of the apps in [first, first + count), GiB/s. */
double
appsGiBs(Scenario &s, uint32_t first, uint32_t count)
{
    double sum = 0.0;
    for (uint32_t i = first; i < first + count; ++i)
        sum += s.appGiBs(i);
    return sum;
}

/**
 * One LC tenant (4 KiB random reads, QD 1; app 0) beside kBeApps
 * saturating BE tenants in one "be" group, with the knob set to favour
 * the LC tenant the way the paper's Fig. 7 sweeps do. `be_writes` turns
 * the BE tenants into 4 KiB random writers.
 */
ScenarioDef
lcBeScenario(Knob knob, bool be_writes, uint64_t seed, SimTime duration,
             SimTime warmup, Check check = nullptr)
{
    ScenarioDef def;
    def.name = strCat(be_writes ? "lc-bewrite-" : "lc-be-", knobName(knob));
    def.cfg = baseConfig(def.name, knob, seed, duration, warmup);
    def.cfg.num_cores = 10;
    // Paper §III: the isolation experiments use libaio.
    def.cfg.engine = host::libaioEngine();
    def.cfg.precondition = be_writes;
    // Paper §V's BFQ setting: without idling, BFQ's aggregate is bound
    // by its dispatch lock rather than by waiting on the QD-1 LC tenant.
    def.cfg.bfq_params.slice_idle = 0;
    def.populate = [knob, be_writes, duration](Scenario &s) {
        s.addApp(workload::lcApp("lc", duration), "lc");
        for (uint32_t i = 0; i < kBeApps; ++i) {
            workload::JobSpec spec =
                workload::beApp(strCat("be", i), duration);
            if (be_writes) {
                spec.op = OpType::kWrite;
                spec.read_fraction = 0.0;
            }
            s.addApp(std::move(spec), "be");
        }
        cgroup::CgroupTree &tree = s.tree();
        cgroup::Cgroup &lc = s.group("lc");
        cgroup::Cgroup &be = s.group("be");
        switch (knob) {
          case Knob::kNone:
          case Knob::kKyber:
          case Knob::kBfq: // io.bfq.weight cannot prioritise (Table I)
            break;
          case Knob::kMqDeadline:
            tree.writeFile(lc, "io.prio.class", "promote-to-rt");
            tree.writeFile(be, "io.prio.class", "idle");
            break;
          case Knob::kIoMax:
            tree.writeFile(be, "io.max",
                           strCat("259:0 rbps=", kBeCapBps,
                                  " wbps=", kBeCapBps));
            break;
          case Knob::kIoLatency:
            tree.writeFile(lc, "io.latency", "259:0 target=200");
            break;
          case Knob::kIoCost:
            tree.writeFile(lc, "io.weight", "10000");
            break;
        }
    };
    def.inspect = [check](Scenario &s, Outputs &out,
                          std::vector<std::string> &fails) {
        out.agg_gibs = s.aggregateGiBs();
        out.lc_p99_us = nsToUs(s.app(0).latency().percentile(99));
        if (check)
            check(s, out, fails);
    };
    return def;
}

/**
 * `cgroups` groups of four batch tenants each: the shape of
 * isolbench::runFairness (one repeat), with uniform weights. `check`
 * also receives the per-group bandwidth in GiB/s.
 */
ScenarioDef
fairnessScenario(
    Knob knob, uint32_t cgroups, FairnessMix mix, uint64_t seed,
    SimTime duration, SimTime warmup,
    std::function<void(const std::vector<double> &, const Outputs &,
                       std::vector<std::string> &)>
        check)
{
    constexpr uint32_t kAppsPerGroup = 4;
    ScenarioDef def;
    def.name = strCat("fair", cgroups, "-",
                      isolbench::fairnessMixName(mix), "-", knobName(knob));
    def.cfg = baseConfig(def.name, knob, seed, duration, warmup);
    def.cfg.num_cores = 20;
    def.cfg.engine = host::libaioEngine();
    def.cfg.precondition = mix == FairnessMix::kReadWrite;
    def.populate = [cgroups, mix, duration](Scenario &s) {
        for (uint32_t g = 0; g < cgroups; ++g) {
            bool alt = g >= cgroups / 2; // second half gets the variant
            for (uint32_t a = 0; a < kAppsPerGroup; ++a) {
                workload::JobSpec spec = workload::batchApp(
                    strCat("cg", g, "-app", a), duration);
                if (alt && mix == FairnessMix::kReadWrite) {
                    spec.op = OpType::kWrite;
                    spec.read_fraction = 0.0;
                }
                s.addApp(std::move(spec), strCat("cg", g));
            }
        }
    };
    def.inspect = [cgroups, check](Scenario &s, Outputs &out,
                                   std::vector<std::string> &fails) {
        std::vector<double> group_bw(cgroups);
        for (uint32_t g = 0; g < cgroups; ++g)
            group_bw[g] = appsGiBs(s, g * kAppsPerGroup, kAppsPerGroup);
        out.agg_gibs = s.aggregateGiBs();
        out.jain = stats::jainIndex(group_bw);
        check(group_bw, out, fails);
    };
    return def;
}

/** Leaf path of tenant `i` in the 4-level fleet tree (fleet_scale). */
std::string
tenantPath(uint32_t i)
{
    return strCat("pod", i % kFleetPods, "/rack", (i / 8) % 4, "/row",
                  (i / 32) % 2, "/t", i);
}

/** Per-pod window bandwidth of a fleet scenario, bytes/s. */
struct PodBandwidth
{
    std::vector<double> all = std::vector<double>(kFleetPods, 0.0);
    std::vector<double> readers = std::vector<double>(kFleetPods, 0.0);
};

/** Sums every tenant's bandwidth into its pod, and separately the
 *  bandwidth of the tenants that only read. */
PodBandwidth
podBandwidth(Scenario &s)
{
    PodBandwidth pods;
    for (uint32_t i = 0; i < s.numApps(); ++i) {
        const cgroup::Cgroup *node = &s.appGroup(i);
        while (node->depth() > 1)
            node = node->parent();
        // Top-level groups are named "pod<N>".
        auto pod = parseUint(node->name().substr(3));
        if (!pod || *pod >= kFleetPods)
            fatal(strCat("fleet: unexpected top-level group ", node->name()));
        double bps = s.appGiBs(i) * static_cast<double>(GiB);
        pods.all[*pod] += bps;
        const workload::JobSpec &spec = s.app(i).spec();
        if (spec.op == OpType::kRead && spec.read_fraction >= 1.0)
            pods.readers[*pod] += bps;
    }
    return pods;
}

/**
 * The 1024-tenant, 4-level fleet of bench/fleet_scale: heterogeneous
 * seeded tenants, one adversary per pod, io.cost weights at every level
 * or io.max caps on the pods.
 */
ScenarioDef
fleetScenario(Knob knob, uint64_t seed)
{
    ScenarioDef def;
    def.name = strCat("fleet-t", kFleetTenants, "-", knobName(knob));
    def.cfg = baseConfig(def.name, knob, seed, kFleetDuration,
                         kFleetWarmup);
    def.cfg.num_cores = 16;
    def.populate = [knob, seed](Scenario &s) {
        SimTime duration = s.config().duration;
        Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
        for (uint32_t i = 0; i < kFleetTenants; ++i) {
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
            spec.seed = seed + i * 7919 + 17;
            uint32_t app = s.addApp(std::move(spec), tenantPath(i));
            if (knob == Knob::kIoCost) {
                s.tree().writeFile(s.appGroup(app), "io.weight",
                                   strCat(rng.between(50, 200)));
            }
        }
        for (uint32_t pod = 0; pod < kFleetPods; ++pod) {
            s.addAdversary(workload::kAllAdversaries[
                               pod % std::size(workload::kAllAdversaries)],
                           strCat("pod", pod, "/adv"));
        }
        for (uint32_t pod = 0; pod < kFleetPods; ++pod) {
            cgroup::Cgroup &pod_cg = s.group(strCat("pod", pod));
            if (knob == Knob::kIoCost) {
                s.tree().writeFile(pod_cg, "io.weight",
                                   strCat(100 * (1 + pod % 4)));
                for (cgroup::Cgroup *rack : pod_cg.children()) {
                    if (rack->name().rfind("rack", 0) == 0) {
                        s.tree().writeFile(*rack, "io.weight",
                                           strCat(rng.between(80, 160)));
                    }
                }
            } else if (knob == Knob::kIoMax) {
                s.tree().writeFile(pod_cg, "io.max",
                                   strCat("259:0 rbps=", kPodRbps,
                                          " wbps=", kPodWbps));
            }
        }
    };
    def.inspect = [knob](Scenario &s, Outputs &out,
                         std::vector<std::string> &fails) {
        out.agg_gibs = s.aggregateGiBs();
        if (knob != Knob::kIoMax)
            return;
        // Interior io.max keeps one read and one write bucket per pod,
        // shared by its whole subtree (blk-throttle). The tenants that
        // only read stay within rbps; all tenants within rbps + wbps.
        PodBandwidth pods = podBandwidth(s);
        double rcap = static_cast<double>(kPodRbps);
        double cap = static_cast<double>(kPodRbps + kPodWbps);
        for (uint32_t p = 0; p < kFleetPods; ++p) {
            expect(fails, pods.readers[p] <= rcap * 1.02,
                   strCat("pod", p, " readers ", pods.readers[p] / MiB,
                          " MiB/s exceed its interior rbps ", rcap / MiB));
            expect(fails, pods.all[p] <= cap * 1.02,
                   strCat("pod", p, " ", pods.all[p] / MiB,
                          " MiB/s exceeds its interior rbps + wbps ",
                          cap / MiB));
        }
    };
    return def;
}

// Each check names the EXPERIMENTS.md row it asserts.

std::vector<ScenarioDef>
paperFlat(uint64_t seed)
{
    auto flat_seed = [seed](uint64_t i) { return seed * 1000003 + 7717 * i; };
    auto lc_be = [&](Knob knob, uint64_t i, Check check = nullptr) {
        return lcBeScenario(knob, false, flat_seed(i), kFlatDuration,
                            kFlatWarmup, std::move(check));
    };
    // Ordered by host cost, heaviest first.
    std::vector<ScenarioDef> defs;
    defs.push_back(fairnessScenario(
        Knob::kMqDeadline, 16, FairnessMix::kUniform, flat_seed(1),
        kFlatDuration, kFlatWarmup,
        [](const std::vector<double> &, const Outputs &out,
           std::vector<std::string> &fails) {
            // Fig. 4: MQ-DL's dispatch lock caps one SSD at ~1.82 GiB/s.
            expect(fails, out.agg_gibs <= 1.9,
                   strCat("MQ-DL aggregate ", out.agg_gibs,
                          " GiB/s above its lock plateau"));
        }));
    defs.push_back(lc_be(Knob::kIoLatency, 2));
    defs.push_back(lc_be(Knob::kNone, 3, [](Scenario &, const Outputs &out,
                                            std::vector<std::string> &fails) {
        // Fig. 4: none saturates one SSD at ~3.1 GiB/s (paper 2.94).
        expect(fails, out.agg_gibs >= 2.7,
               strCat("none aggregate ", out.agg_gibs,
                      " GiB/s below device saturation"));
    }));
    defs.push_back(fairnessScenario(
        Knob::kIoCost, 16, FairnessMix::kUniform, flat_seed(4),
        kFlatDuration, kFlatWarmup,
        [](const std::vector<double> &, const Outputs &out,
           std::vector<std::string> &fails) {
            // Fig. 5: uniform weights are fair (Jain >= 0.99), at the
            // bandwidth cost of the achievable model (~1.14 GiB/s).
            expect(fails, out.jain >= 0.99,
                   strCat("io.cost uniform Jain ", out.jain));
            expect(fails, out.agg_gibs >= 1.0 && out.agg_gibs <= 1.3,
                   strCat("io.cost aggregate ", out.agg_gibs,
                          " GiB/s outside [1.0, 1.3]"));
        }));
    defs.push_back(lc_be(Knob::kIoCost, 5, [](Scenario &, const Outputs &out,
                                              std::vector<std::string> &fails) {
        // Fig. 7e-h: io.cost keeps the LC P99 within ~200-480 us.
        expect(fails, out.lc_p99_us <= 500.0,
               strCat("io.cost LC P99 ", out.lc_p99_us, " us above 500"));
    }));
    defs.push_back(lc_be(Knob::kIoMax, 6, [](Scenario &s, const Outputs &,
                                             std::vector<std::string> &fails) {
        // Fig. 2e: io.max caps are respected.
        double be = appsGiBs(s, 1, kBeApps);
        double cap = static_cast<double>(kBeCapBps) / GiB;
        expect(fails, be <= cap * 1.02,
               strCat("BE group ", be, " GiB/s exceeds its io.max cap ",
                      cap));
    }));
    defs.push_back(lc_be(Knob::kBfq, 7, [](Scenario &, const Outputs &out,
                                           std::vector<std::string> &fails) {
        // Fig. 4: BFQ's single-SSD aggregate is ~0.69 GiB/s.
        expect(fails, out.agg_gibs >= 0.6 && out.agg_gibs <= 0.8,
               strCat("BFQ aggregate ", out.agg_gibs,
                      " GiB/s outside [0.6, 0.8]"));
    }));
    defs.push_back(lc_be(Knob::kMqDeadline, 8));
    return defs;
}

std::vector<ScenarioDef>
fleetTree(uint64_t seed)
{
    // Two independently seeded fleets per knob keep all four workers of
    // a 4-CPU host busy; with one fleet per knob the run phase rested on
    // a single io.max scenario and its host time spread twice as much
    // between runs.
    return {fleetScenario(Knob::kIoMax, seed * 1000003 + 31),
            fleetScenario(Knob::kIoMax, seed * 1000003 + 93),
            fleetScenario(Knob::kIoCost, seed * 1000003 + 62),
            fleetScenario(Knob::kIoCost, seed * 1000003 + 124)};
}

std::vector<ScenarioDef>
writeGc(uint64_t seed)
{
    auto gc_seed = [seed](uint64_t i) { return seed * 1000003 + 7717 * i; };
    // Fig. 6b: mixing readers with writers collapses the aggregate to
    // well under half of the ~3.1 GiB/s read-only figure.
    auto collapse = [](const Outputs &out, std::vector<std::string> &fails) {
        expect(fails, out.agg_gibs <= 1.5,
               strCat("read+write aggregate ", out.agg_gibs,
                      " GiB/s did not collapse"));
    };
    std::vector<ScenarioDef> defs;
    defs.push_back(fairnessScenario(
        Knob::kNone, 2, FairnessMix::kReadWrite, gc_seed(1), kGcDuration,
        kGcWarmup,
        [collapse](const std::vector<double> &, const Outputs &out,
                   std::vector<std::string> &fails) {
            collapse(out, fails);
        }));
    defs.push_back(fairnessScenario(
        Knob::kIoCost, 2, FairnessMix::kReadWrite, gc_seed(2), kGcDuration,
        kGcWarmup,
        [collapse](const std::vector<double> &group_bw, const Outputs &out,
                   std::vector<std::string> &fails) {
            collapse(out, fails);
            // Fig. 6b: io.cost is the least fair knob here because its
            // cost model prefers the readers (group 0).
            expect(fails, out.jain <= 0.8,
                   strCat("io.cost read+write Jain ", out.jain));
            expect(fails, group_bw[0] > group_bw[1],
                   "io.cost did not favour the read group");
        }));
    defs.push_back(lcBeScenario(Knob::kNone, true, gc_seed(3), kGcDuration,
                                kGcWarmup));
    defs.push_back(lcBeScenario(Knob::kMqDeadline, true, gc_seed(4),
                                kGcDuration, kGcWarmup));
    defs.push_back(lcBeScenario(Knob::kIoCost, true, gc_seed(5), kGcDuration,
                                kGcWarmup));
    for (ScenarioDef &def : defs) {
        auto inspect = std::move(def.inspect);
        def.inspect = [inspect](Scenario &s, Outputs &out,
                                std::vector<std::string> &fails) {
            inspect(s, out, fails);
            // Random overwrites of a full drive force garbage collection.
            expect(fails, s.ssd(0).waf() > 1.0,
                   strCat("WAF ", s.ssd(0).waf(), " is not above 1"));
        };
    }
    return defs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"paper_flat",
                                                   "fleet_tree", "write_gc"};
    return names;
}

std::vector<ScenarioDef>
workloadScenarios(const std::string &name, uint64_t seed)
{
    if (name == "paper_flat")
        return paperFlat(seed);
    if (name == "fleet_tree")
        return fleetTree(seed);
    if (name == "write_gc")
        return writeGc(seed);
    return {};
}

} // namespace hostbench
