/**
 * @file
 * Property tests for hierarchical cgroup I/O control: weight-split
 * proportionality through interior nodes, interior io.max subtree caps
 * and their round-robin dispatch, charge conservation on randomized
 * 3-level trees, and a byte-identical 1024-tenant fleet replay across
 * sweep worker counts.
 *
 * Randomized cases draw from the repo's deterministic xoshiro256++
 * (common/rng.hh) with fixed seeds, so every "random" tree is the same
 * tree on every platform and every run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "blk/qos_cost.hh"
#include "blk/qos_max.hh"
#include "cgroup/cgroup.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "workload/app_profiles.hh"

namespace isol::blk
{
namespace
{

struct HierarchyFixture : public ::testing::Test
{
    HierarchyFixture()
    {
        tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
    }

    cgroup::Cgroup &
    interior(cgroup::Cgroup &parent, const std::string &name)
    {
        cgroup::Cgroup &cg = tree.createChild(parent, name);
        tree.enableIoController(cg);
        return cg;
    }

    cgroup::Cgroup &
    leaf(cgroup::Cgroup &parent, const std::string &name)
    {
        cgroup::Cgroup &cg = tree.createChild(parent, name);
        tree.attachProcess(cg);
        return cg;
    }

    Request *
    makeReq(cgroup::Cgroup *cg, OpType op = OpType::kRead,
            uint32_t size = 4096)
    {
        auto req = std::make_unique<Request>();
        req->op = op;
        req->size = size;
        req->cg = cg;
        req->blk_enter_time = sim.now();
        req->dispatch_time = sim.now();
        reqs.push_back(std::move(req));
        return reqs.back().get();
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    std::vector<std::unique_ptr<Request>> reqs;
};

// --- Weight-split proportionality --------------------------------------

TEST_F(HierarchyFixture, InteriorWeightSplitsAcrossChildSubtrees)
{
    // root -> podA(w=300){a1(w=100), a2(w=300)}, podB(w=100){b1}.
    cgroup::Cgroup &pod_a = interior(tree.root(), "podA");
    cgroup::Cgroup &pod_b = interior(tree.root(), "podB");
    tree.writeFile(pod_a, "io.weight", "300");
    tree.writeFile(pod_b, "io.weight", "100");
    cgroup::Cgroup &a1 = leaf(pod_a, "a1");
    cgroup::Cgroup &a2 = leaf(pod_a, "a2");
    cgroup::Cgroup &b1 = leaf(pod_b, "b1");
    tree.writeFile(a1, "io.weight", "100");
    tree.writeFile(a2, "io.weight", "300");

    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(&a1));
    gate.submit(makeReq(&a2));
    gate.submit(makeReq(&b1));

    // podA:podB split 3:1; inside podA, a1:a2 split 1:3.
    EXPECT_NEAR(gate.shareOf(&a1), 0.75 * 0.25, 1e-9);
    EXPECT_NEAR(gate.shareOf(&a2), 0.75 * 0.75, 1e-9);
    EXPECT_NEAR(gate.shareOf(&b1), 0.25, 1e-9);
}

TEST_F(HierarchyFixture, IdleSubtreeDoesNotDiluteActiveShares)
{
    // A pod whose leaves never submit must not absorb weight: v2 shares
    // are computed over *active* child subtrees only.
    cgroup::Cgroup &pod_a = interior(tree.root(), "podA");
    cgroup::Cgroup &pod_b = interior(tree.root(), "podB");
    tree.writeFile(pod_a, "io.weight", "100");
    tree.writeFile(pod_b, "io.weight", "900");
    cgroup::Cgroup &a1 = leaf(pod_a, "a1");
    leaf(pod_b, "b1"); // exists but stays idle

    IoCostGate gate(sim, 0, tree, [](Request *) {});
    gate.submit(makeReq(&a1));
    EXPECT_NEAR(gate.shareOf(&a1), 1.0, 1e-9);
}

/** Expected hierarchical share: product of weight / active-sibling-sum
 *  along the chain, computed independently of the gate. */
double
expectedShare(const cgroup::Cgroup &cg,
              const std::vector<cgroup::Cgroup *> &active_leaves)
{
    auto subtree_active = [&](const cgroup::Cgroup &node) {
        for (const cgroup::Cgroup *a_leaf : active_leaves) {
            for (const cgroup::Cgroup *n = a_leaf; n != nullptr;
                 n = n->parent()) {
                if (n == &node)
                    return true;
            }
        }
        return false;
    };
    double share = 1.0;
    for (const cgroup::Cgroup *node = &cg; node->parent() != nullptr;
         node = node->parent()) {
        uint64_t sum = 0;
        for (const cgroup::Cgroup *sib : node->parent()->children()) {
            if (subtree_active(*sib))
                sum += sib->ioWeight();
        }
        share *= static_cast<double>(node->ioWeight()) /
                 static_cast<double>(sum);
    }
    return share;
}

TEST_F(HierarchyFixture, WeightSplitProportionalOnRandomizedTrees)
{
    Rng rng(0xFEED5EEDull);
    for (int round = 0; round < 20; ++round) {
        sim::Simulator local_sim;
        cgroup::CgroupTree local_tree;
        local_tree.writeFile(local_tree.root(),
                             "cgroup.subtree_control", "+io");

        // Random 3-level tree: 2-4 pods, 1-3 racks each, 1-3 leaves.
        std::vector<cgroup::Cgroup *> leaves;
        uint32_t pods = static_cast<uint32_t>(rng.between(2, 4));
        for (uint32_t p = 0; p < pods; ++p) {
            cgroup::Cgroup &pod =
                local_tree.createChild(local_tree.root(), strCat("p", p));
            local_tree.enableIoController(pod);
            local_tree.writeFile(pod, "io.weight",
                                 strCat(rng.between(1, 1000)));
            uint32_t racks = static_cast<uint32_t>(rng.between(1, 3));
            for (uint32_t r = 0; r < racks; ++r) {
                cgroup::Cgroup &rack =
                    local_tree.createChild(pod, strCat("r", r));
                local_tree.enableIoController(rack);
                local_tree.writeFile(rack, "io.weight",
                                     strCat(rng.between(1, 1000)));
                uint32_t n = static_cast<uint32_t>(rng.between(1, 3));
                for (uint32_t l = 0; l < n; ++l) {
                    cgroup::Cgroup &lf =
                        local_tree.createChild(rack, strCat("l", l));
                    local_tree.attachProcess(lf);
                    local_tree.writeFile(lf, "io.weight",
                                         strCat(rng.between(1, 1000)));
                    leaves.push_back(&lf);
                }
            }
        }

        // A random non-empty subset of leaves becomes active.
        std::vector<cgroup::Cgroup *> active;
        for (cgroup::Cgroup *lf : leaves) {
            if (rng.below(2) == 0)
                active.push_back(lf);
        }
        if (active.empty())
            active.push_back(leaves[rng.below(leaves.size())]);

        IoCostGate gate(local_sim, 0, local_tree, [](Request *) {});
        std::vector<std::unique_ptr<Request>> local_reqs;
        for (cgroup::Cgroup *lf : active) {
            auto req = std::make_unique<Request>();
            req->op = OpType::kRead;
            req->size = 4096;
            req->cg = lf;
            gate.submit(req.get());
            local_reqs.push_back(std::move(req));
        }

        double total = 0.0;
        for (cgroup::Cgroup *lf : active) {
            double expect = expectedShare(*lf, active);
            EXPECT_NEAR(gate.shareOf(lf), expect, 1e-9)
                << "round " << round << " leaf " << lf->path();
            total += expect;
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << "round " << round;
    }
}

// --- Interior io.max: shared subtree caps ------------------------------

TEST_F(HierarchyFixture, InteriorIoMaxCapsWholeSubtree)
{
    // pod capped at 4 MiB/s; its two unlimited leaves together must not
    // exceed the shared bucket.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304");
    cgroup::Cgroup &a = leaf(pod, "a");
    cgroup::Cgroup &b = leaf(pod, "b");

    uint64_t passed_bytes = 0;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { passed_bytes += req->size; });
    for (int i = 0; i < 2048; ++i) {
        gate.submit(makeReq(&a));
        gate.submit(makeReq(&b));
    }
    sim.runUntil(secToNs(int64_t{1}));
    double mibs =
        static_cast<double>(passed_bytes) / static_cast<double>(MiB);
    EXPECT_GT(mibs, 3.2);
    EXPECT_LT(mibs, 4.8);
    EXPECT_GT(gate.throttled(), 0u);
}

TEST_F(HierarchyFixture, TightestAncestorLimitWins)
{
    // grandparent 2 MiB/s, parent 8 MiB/s: the subtree drains at the
    // grandparent's rate regardless of the looser inner limit.
    cgroup::Cgroup &outer = interior(tree.root(), "outer");
    cgroup::Cgroup &inner = interior(outer, "inner");
    tree.writeFile(outer, "io.max", "259:0 rbps=2097152");
    tree.writeFile(inner, "io.max", "259:0 rbps=8388608");
    cgroup::Cgroup &lf = leaf(inner, "leaf");

    uint64_t passed_bytes = 0;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { passed_bytes += req->size; });
    for (int i = 0; i < 4096; ++i)
        gate.submit(makeReq(&lf));
    sim.runUntil(secToNs(int64_t{1}));
    double mibs =
        static_cast<double>(passed_bytes) / static_cast<double>(MiB);
    EXPECT_GT(mibs, 1.6);
    EXPECT_LT(mibs, 2.5);
}

TEST_F(HierarchyFixture, SiblingSubtreeUnaffectedByCappedPod)
{
    cgroup::Cgroup &capped = interior(tree.root(), "capped");
    tree.writeFile(capped, "io.max", "259:0 riops=100");
    cgroup::Cgroup &free_pod = interior(tree.root(), "free");
    cgroup::Cgroup &c_leaf = leaf(capped, "x");
    cgroup::Cgroup &f_leaf = leaf(free_pod, "y");

    int free_passed = 0;
    IoMaxGate gate(sim, 0, tree, [&](Request *req) {
        free_passed += req->cg == &f_leaf;
    });
    for (int i = 0; i < 200; ++i) {
        gate.submit(makeReq(&c_leaf));
        gate.submit(makeReq(&f_leaf));
    }
    // The uncapped subtree passes everything immediately.
    EXPECT_EQ(free_passed, 200);
}

// --- Charge conservation on randomized trees ---------------------------

TEST_F(HierarchyFixture, ChargeConservationOnRandomizedTrees)
{
    Rng rng(0xC0FFEEull);
    for (int round = 0; round < 10; ++round) {
        sim::Simulator local_sim;
        cgroup::CgroupTree local_tree;
        local_tree.writeFile(local_tree.root(),
                             "cgroup.subtree_control", "+io");
        sim::InvariantChecker inv(strCat("hierarchy-", round));

        std::vector<cgroup::Cgroup *> leaves;
        std::vector<cgroup::Cgroup *> interiors;
        uint32_t pods = static_cast<uint32_t>(rng.between(2, 3));
        for (uint32_t p = 0; p < pods; ++p) {
            cgroup::Cgroup &pod =
                local_tree.createChild(local_tree.root(), strCat("p", p));
            local_tree.enableIoController(pod);
            interiors.push_back(&pod);
            uint32_t racks = static_cast<uint32_t>(rng.between(1, 3));
            for (uint32_t r = 0; r < racks; ++r) {
                cgroup::Cgroup &rack =
                    local_tree.createChild(pod, strCat("r", r));
                local_tree.enableIoController(rack);
                interiors.push_back(&rack);
                uint32_t n = static_cast<uint32_t>(rng.between(1, 3));
                for (uint32_t l = 0; l < n; ++l) {
                    cgroup::Cgroup &lf =
                        local_tree.createChild(rack, strCat("l", l));
                    local_tree.attachProcess(lf);
                    leaves.push_back(&lf);
                }
            }
        }

        IoCostGate gate(local_sim, 0, local_tree, [](Request *) {});
        gate.setInvariants(&inv);
        gate.start();
        std::vector<std::unique_ptr<Request>> local_reqs;
        uint32_t ios = static_cast<uint32_t>(rng.between(50, 200));
        for (uint32_t i = 0; i < ios; ++i) {
            auto req = std::make_unique<Request>();
            req->op = rng.below(2) == 0 ? OpType::kRead : OpType::kWrite;
            req->sequential = rng.below(2) == 0;
            req->size = static_cast<uint32_t>(
                (1 + rng.below(64)) * 4096);
            req->cg = leaves[rng.below(leaves.size())];
            gate.submit(req.get());
            local_reqs.push_back(std::move(req));
        }
        local_sim.runUntil(secToNs(int64_t{2}));

        // Bottom-up conservation: every interior node's subtree charge
        // equals the sum over its children (only leaves submit here).
        for (const cgroup::Cgroup *node : interiors) {
            double child_sum = 0.0;
            for (const cgroup::Cgroup *child : node->children())
                child_sum += gate.subtreeAbsOf(child);
            EXPECT_NEAR(gate.subtreeAbsOf(node), child_sum,
                        1e-6 + 1e-9 * child_sum)
                << "round " << round << " node " << node->path();
        }

        // And the gate's own oracle agrees (throws on violation).
        EXPECT_NO_THROW(gate.finalChecks());
        EXPECT_GT(inv.checksPerformed(), 0u);
    }
}

TEST_F(HierarchyFixture, IoMaxHierarchicalConsumptionConserved)
{
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=8388608");
    cgroup::Cgroup &a = leaf(pod, "a");
    cgroup::Cgroup &b = leaf(pod, "b");

    sim::InvariantChecker inv("iomax-hier");
    IoMaxGate gate(sim, 0, tree, [](Request *) {});
    gate.setInvariants(&inv);
    for (int i = 0; i < 512; ++i) {
        gate.submit(makeReq(&a));
        gate.submit(makeReq(&b));
    }
    sim.runUntil(secToNs(int64_t{1}));

    EXPECT_EQ(gate.consumedBytesOf(&pod),
              gate.consumedBytesOf(&a) + gate.consumedBytesOf(&b));
    EXPECT_NO_THROW(gate.finalChecks());
}

// --- Interior io.max: round-robin dispatch, no wakeup herd --------------

TEST_F(HierarchyFixture, InteriorCapSplitsEvenlyAcrossEqualSiblings)
{
    // Apply the limit, read it back, then confirm it with a measured
    // rate: four equally deep, equally backlogged siblings under one
    // 8 MiB/s pod cap each get a quarter of it.
    constexpr uint64_t kCap = 8 * MiB;
    constexpr int kSiblings = 4;
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", strCat("259:0 rbps=", kCap));
    ASSERT_NE(tree.readFile(pod, "io.max").find(strCat("rbps=", kCap)),
              std::string::npos);
    std::vector<cgroup::Cgroup *> sibs;
    for (int i = 0; i < kSiblings; ++i)
        sibs.push_back(&leaf(pod, strCat("s", i)));

    std::vector<uint64_t> bytes(kSiblings, 0);
    IoMaxGate gate(sim, 0, tree, [&](Request *req) {
        for (int i = 0; i < kSiblings; ++i)
            bytes[i] += req->cg == sibs[i] ? req->size : 0;
    });
    // Each sibling alone offers twice the whole cap for the run.
    for (int n = 0; n < 4096; ++n) {
        for (cgroup::Cgroup *cg : sibs)
            gate.submit(makeReq(cg));
    }
    sim.runUntil(secToNs(int64_t{1}));

    uint64_t total = 0;
    for (uint64_t b : bytes)
        total += b;
    EXPECT_LE(static_cast<double>(total), 1.02 * kCap);
    EXPECT_GE(static_cast<double>(total), 0.98 * kCap);
    // One request per turn: shares differ by at most one request, well
    // inside 2% of cap/N.
    double fair = static_cast<double>(kCap) / kSiblings;
    for (int i = 0; i < kSiblings; ++i) {
        EXPECT_NEAR(static_cast<double>(bytes[i]), fair, 0.02 * fair)
            << "sibling " << i;
    }
}

TEST_F(HierarchyFixture, SharedCapWakesOnceNotOncePerSibling)
{
    // 64 throttled siblings wait on one pod bucket. The pod's dispatch
    // timer serves them, so an admission costs about one event however
    // many siblings wait; a timer per sibling would wake all 64.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304");
    std::vector<cgroup::Cgroup *> sibs;
    for (int i = 0; i < 64; ++i)
        sibs.push_back(&leaf(pod, strCat("s", i)));

    uint64_t admitted = 0;
    IoMaxGate gate(sim, 0, tree, [&](Request *) { ++admitted; });
    for (int n = 0; n < 32; ++n) {
        for (cgroup::Cgroup *cg : sibs)
            gate.submit(makeReq(cg));
    }
    uint64_t events_before = sim.eventsExecuted();
    sim.runUntil(secToNs(int64_t{1}));
    uint64_t events = sim.eventsExecuted() - events_before;

    ASSERT_GT(gate.throttled(), 0u); // still contended at the end
    ASSERT_GT(admitted, 900u); // 4 MiB/s of 4 KiB reads is 1024/s
    EXPECT_LE(static_cast<double>(events) / static_cast<double>(admitted),
              3.0)
        << events << " events for " << admitted << " admissions";
}

TEST_F(HierarchyFixture, RecycledIdUnderPendingPodTimerStartsClean)
{
    // A drained sibling is removed while the pod's dispatch timer is
    // pending for another; the tree hands its id to a new group, which
    // must start with fresh waiting state and share the pod's cap.
    cgroup::Cgroup &pod = interior(tree.root(), "pod");
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304");
    cgroup::Cgroup *a = &leaf(pod, "a");
    cgroup::Cgroup &b = leaf(pod, "b");

    sim::InvariantChecker inv("iomax-recycle");
    std::vector<const cgroup::Cgroup *> passed;
    IoMaxGate gate(sim, 0, tree,
                   [&](Request *req) { passed.push_back(req->cg); });
    gate.setInvariants(&inv);
    // a and b both park at the pod; a's 8 requests are served first.
    for (int n = 0; n < 8; ++n)
        gate.submit(makeReq(a));
    for (int n = 0; n < 64; ++n)
        gate.submit(makeReq(&b));
    sim.runUntil(msToNs(20));
    ASSERT_EQ(std::count(passed.begin(), passed.end(), a), 8);
    ASSERT_GT(gate.throttled(), 0u); // b waits on the pending pod timer
    auto b_early = std::count(passed.begin(), passed.end(), &b);
    passed.clear(); // c may reuse a's address as well as its id

    cgroup::CgroupId old_id = a->id();
    tree.detachProcess(*a);
    tree.removeGroup(*a);
    cgroup::Cgroup &c = leaf(pod, "c");
    ASSERT_EQ(c.id(), old_id);
    tree.writeFile(c, "io.max", "259:0 riops=200");
    for (int n = 0; n < 32; ++n)
        gate.submit(makeReq(&c));
    sim.runUntil(msToNs(500));

    // Everything drains, c under its own limit and both under the pod's.
    EXPECT_EQ(gate.throttled(), 0u);
    EXPECT_EQ(b_early + std::count(passed.begin(), passed.end(), &b), 64);
    EXPECT_EQ(std::count(passed.begin(), passed.end(), &c), 32);
    EXPECT_EQ(gate.consumedBytesOf(&pod),
              gate.consumedBytesOf(&b) + gate.consumedBytesOf(&c) +
                  8u * 4096u);
    EXPECT_NO_THROW(gate.finalChecks());
}

// --- 1024-tenant fleet replay ------------------------------------------

/** Leaf path for tenant `i` in a 4-level tree with 8 pods. */
std::string
fleetPath(uint32_t i)
{
    return strCat("pod", i % 8, "/rack", (i / 8) % 4, "/row",
                  (i / 32) % 2, "/t", i);
}

/** One 1024-tenant, 4-level fleet scenario; exact-metrics fingerprint. */
std::string
fleetFingerprint(uint64_t seed)
{
    using namespace isol::isolbench;
    ScenarioConfig cfg;
    cfg.name = strCat("fleet-replay-", seed);
    cfg.knob = Knob::kIoCost;
    cfg.num_cores = 16;
    cfg.duration = msToNs(80);
    cfg.warmup = msToNs(20);
    cfg.seed = seed;

    Scenario s(cfg);
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    for (uint32_t i = 0; i < 1024; ++i) {
        workload::JobSpec spec;
        if (rng.below(2) == 0) {
            spec = workload::lcApp(strCat("lc", i), cfg.duration);
        } else {
            spec = workload::batchApp(strCat("batch", i), cfg.duration);
            spec.iodepth = static_cast<uint32_t>(rng.between(2, 4));
        }
        spec.seed = seed + i * 7919 + 17;
        uint32_t app = s.addApp(std::move(spec), fleetPath(i));
        s.tree().writeFile(s.appGroup(app), "io.weight",
                           strCat(rng.between(50, 200)));
    }
    s.run();

    std::string print;
    uint64_t bytes = 0;
    uint64_t ios = 0;
    for (uint32_t i = 0; i < s.numApps(); ++i) {
        bytes += s.app(i).windowBytes();
        ios += s.app(i).totalIos();
    }
    print += strCat("bytes=", bytes, " ios=", ios,
                    " events=", s.sim().eventsExecuted());
    uint64_t bookkeeping = 0;
    for (uint32_t d = 0; d < s.numDevices(); ++d)
        bookkeeping += s.device(d).gateBookkeepingOps();
    print += strCat(" bookkeeping=", bookkeeping);
    return print;
}

TEST(FleetReplay, ByteIdenticalAcrossJobs)
{
    auto fingerprints = [](uint32_t jobs) {
        return isolbench::sweep::map<std::string>(
            2, [](size_t i) { return fleetFingerprint(23 + i * 101); },
            jobs);
    };
    std::vector<std::string> jobs1 = fingerprints(1);
    std::vector<std::string> jobs2 = fingerprints(2);
    std::vector<std::string> jobs8 = fingerprints(8);
    EXPECT_EQ(jobs1, jobs2);
    EXPECT_EQ(jobs1, jobs8);
    for (const std::string &fp : jobs1) {
        EXPECT_NE(fp.find("events="), std::string::npos);
        EXPECT_NE(fp.find("bookkeeping="), std::string::npos);
    }
}

} // namespace
} // namespace isol::blk
