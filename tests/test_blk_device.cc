/**
 * @file
 * Integration tests for the BlockDevice pipeline: knob wiring, tag
 * limits, dispatch-lock serialization, spin-time model, and end-to-end
 * completion flow against the SSD model.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blk/block_device.hh"
#include "cgroup/cgroup.hh"
#include "common/rng.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"

namespace isol::blk
{
namespace
{

struct BdevFixture : public ::testing::Test
{
    BdevFixture() : ssd(sim, ssd::samsung980ProLike(), 7)
    {
        tree.writeFile(tree.root(), "cgroup.subtree_control", "+io");
        cg = &tree.createChild(tree.root(), "app");
        tree.attachProcess(*cg);
    }

    std::unique_ptr<BlockDevice>
    makeBdev(BlockDeviceConfig cfg)
    {
        auto bdev = std::make_unique<BlockDevice>(sim, tree, ssd, cfg);
        bdev->start();
        return bdev;
    }

    Request *
    makeReq(std::function<void()> done, OpType op = OpType::kRead,
            uint32_t size = 4096, uint64_t offset = 0)
    {
        auto req = std::make_unique<Request>();
        req->op = op;
        req->size = size;
        req->offset = offset;
        req->cg = cg;
        req->on_complete = [done = std::move(done)](Request *) { done(); };
        reqs.push_back(std::move(req));
        return reqs.back().get();
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd;
    cgroup::Cgroup *cg = nullptr;
    std::vector<std::unique_ptr<Request>> reqs;
};

TEST_F(BdevFixture, NoneCompletesEndToEnd)
{
    auto bdev = makeBdev({});
    SimTime done_at = -1;
    bdev->submit(makeReq([&] { done_at = sim.now(); }));
    sim.runAll();
    EXPECT_GT(done_at, usToNs(50));
    EXPECT_LT(done_at, usToNs(200));
    EXPECT_EQ(bdev->completed(), 1u);
    EXPECT_EQ(bdev->inflight(), 0u);
}

TEST_F(BdevFixture, NoneHasNoKnobCpuOrSpin)
{
    auto bdev = makeBdev({});
    EXPECT_EQ(bdev->perIoCpuExtra(), 0);
    EXPECT_EQ(bdev->submitSpinTime(), 0);
}

TEST_F(BdevFixture, KnobCpuExtraPerConfig)
{
    BlockDeviceConfig mq;
    mq.elevator = ElevatorType::kMqDeadline;
    BlockDeviceConfig bfq;
    bfq.elevator = ElevatorType::kBfq;
    BlockDeviceConfig iomax;
    iomax.enable_io_max = true;
    BlockDeviceConfig iocost;
    iocost.enable_io_cost = true;
    EXPECT_GT(makeBdev(bfq)->perIoCpuExtra(),
              makeBdev(mq)->perIoCpuExtra());
    EXPECT_GT(makeBdev(mq)->perIoCpuExtra(),
              makeBdev(iomax)->perIoCpuExtra());
    EXPECT_GT(makeBdev(iocost)->perIoCpuExtra(), 0);
}

TEST_F(BdevFixture, TagLimitQueuesExcess)
{
    BlockDeviceConfig cfg;
    cfg.nr_requests = 4;
    auto bdev = makeBdev(cfg);
    int done = 0;
    for (int i = 0; i < 10; ++i)
        bdev->submit(makeReq([&] { ++done; }, OpType::kRead, 4096,
                             static_cast<uint64_t>(i) * 4096));
    EXPECT_EQ(bdev->inflight(), 4u);
    EXPECT_EQ(bdev->tagWaiting(), 6u);
    sim.runAll();
    EXPECT_EQ(done, 10);
    EXPECT_EQ(bdev->inflight(), 0u);
}

TEST_F(BdevFixture, DispatchLockSerializesThroughput)
{
    // With a 10 us lock hold (2 acquisitions/request), max ~50k IOPS.
    BlockDeviceConfig cfg;
    cfg.elevator = ElevatorType::kMqDeadline;
    cfg.mq_lock_hold = usToNs(10);
    auto bdev = makeBdev(cfg);
    Rng rng(3);

    int done = 0;
    std::function<void()> issue = [&] {
        uint64_t off = rng.below(1 << 20) * 4096;
        bdev->submit(makeReq([&] {
            ++done;
            if (sim.now() < msToNs(100))
                issue();
        }, OpType::kRead, 4096, off));
    };
    for (int i = 0; i < 512; ++i)
        issue();
    sim.runUntil(msToNs(100));
    double iops = done / 0.1;
    EXPECT_LT(iops, 60000.0);
    EXPECT_GT(iops, 30000.0);
}

TEST_F(BdevFixture, SpinTimeGrowsWithSubmitters)
{
    BlockDeviceConfig cfg;
    cfg.elevator = ElevatorType::kBfq;
    auto bdev = makeBdev(cfg);
    // Saturate the lock so backlog is not the binding term.
    for (int i = 0; i < 64; ++i)
        bdev->submit(makeReq([] {}, OpType::kRead, 4096,
                             static_cast<uint64_t>(i) * 4096));
    SimTime spin0 = bdev->submitSpinTime();
    for (int i = 0; i < 8; ++i)
        bdev->registerSubmitter();
    SimTime spin8 = bdev->submitSpinTime();
    EXPECT_GT(spin8, spin0);
    for (int i = 0; i < 8; ++i)
        bdev->unregisterSubmitter();
    EXPECT_EQ(bdev->submitters(), 0u);
}

TEST_F(BdevFixture, IoMaxPipelineThrottles)
{
    tree.writeFile(*cg, "io.max", "259:0 rbps=4194304"); // 4 MiB/s
    BlockDeviceConfig cfg;
    cfg.enable_io_max = true;
    auto bdev = makeBdev(cfg);

    uint64_t bytes = 0;
    Rng rng(5);
    std::function<void()> issue = [&] {
        uint64_t off = rng.below(1 << 20) * 4096;
        bdev->submit(makeReq([&] {
            bytes += 4096;
            if (sim.now() < msToNs(500))
                issue();
        }, OpType::kRead, 4096, off));
    };
    for (int i = 0; i < 64; ++i)
        issue();
    sim.runUntil(msToNs(500));
    double mibs = bytesOverNsToMiBs(bytes, msToNs(500));
    EXPECT_LT(mibs, 6.0);
    EXPECT_GT(mibs, 2.5);
}

TEST_F(BdevFixture, IoCostPipelineThrottlesToModel)
{
    cgroup::IoCostModel model;
    model.user = true;
    model.rbps = 100ull * GiB;
    model.rrandiops = 10000;
    model.rseqiops = 10000;
    tree.setCostModel(0, model);
    cgroup::IoCostQos qos;
    qos.rpct = 0.0;
    qos.wpct = 0.0;
    tree.setCostQos(0, qos);

    BlockDeviceConfig cfg;
    cfg.enable_io_cost = true;
    auto bdev = makeBdev(cfg);

    int done = 0;
    Rng rng(5);
    std::function<void()> issue = [&] {
        uint64_t off = rng.below(1 << 20) * 4096;
        bdev->submit(makeReq([&] {
            ++done;
            if (sim.now() < msToNs(500))
                issue();
        }, OpType::kRead, 4096, off));
    };
    for (int i = 0; i < 256; ++i)
        issue();
    sim.runUntil(msToNs(500));
    double iops = done / 0.5;
    EXPECT_LT(iops, 14000.0);
    EXPECT_GT(iops, 7000.0);
}

TEST_F(BdevFixture, IoLatencyPipelineCompletes)
{
    tree.writeFile(*cg, "io.latency", "259:0 target=3000000");
    BlockDeviceConfig cfg;
    cfg.enable_io_latency = true;
    auto bdev = makeBdev(cfg);
    int done = 0;
    for (int i = 0; i < 100; ++i)
        bdev->submit(makeReq([&] { ++done; }, OpType::kRead, 4096,
                             static_cast<uint64_t>(i) * 4096));
    sim.runUntil(msToNs(100));
    EXPECT_EQ(done, 100);
}

TEST_F(BdevFixture, IoLatencyQueueDepthFromConfig)
{
    BlockDeviceConfig cfg;
    cfg.enable_io_latency = true;
    cfg.iolat_params.max_nr_requests = 8;
    auto bdev = makeBdev(cfg);
    EXPECT_EQ(bdev->ioLatencyGate()->qdLimit(cg), 8u);
}

TEST_F(BdevFixture, StackedGatesRunInKernelOrder)
{
    // io.max -> io.cost -> io.latency on one device. Sibling `a` spends
    // the interior io.max credit first, so every request of `b` waits in
    // io.max, and io.cost must not have charged any of them yet.
    cgroup::Cgroup &pod = tree.createChild(tree.root(), "pod");
    tree.enableIoController(pod);
    cgroup::Cgroup &a = tree.createChild(pod, "a");
    cgroup::Cgroup &b = tree.createChild(pod, "b");
    tree.attachProcess(a);
    tree.attachProcess(b);
    tree.writeFile(pod, "io.max", "259:0 rbps=4194304"); // 4 MiB/s
    tree.writeFile(a, "io.latency", "259:0 target=10000");

    sim::InvariantChecker inv("stacked");
    BlockDeviceConfig cfg;
    cfg.enable_io_max = true;
    cfg.enable_io_cost = true;
    cfg.enable_io_latency = true;
    cfg.invariants = &inv;
    auto bdev = makeBdev(cfg);
    IoMaxGate &iomax = *bdev->ioMaxGate();
    IoCostGate &iocost = *bdev->ioCostGate();
    IoLatencyGate &iolat = *bdev->ioLatencyGate();

    int done = 0;
    Request *first = makeReq([&] { ++done; });
    first->cg = &a;
    bdev->submit(first);
    for (int i = 0; i < 8; ++i) {
        Request *req = makeReq([&] { ++done; }, OpType::kRead, 4096,
                               static_cast<uint64_t>(i + 1) * 4096);
        req->cg = &b;
        bdev->submit(req);
    }
    EXPECT_EQ(iomax.throttled(), 8u);
    EXPECT_GT(iocost.subtreeAbsOf(&a), 0.0);
    EXPECT_EQ(iocost.subtreeAbsOf(&b), 0.0);
    EXPECT_EQ(iocost.throttled(), 0u);
    EXPECT_EQ(iolat.throttled(), 0u);

    EXPECT_NO_THROW(sim.runUntil(msToNs(100)));
    EXPECT_EQ(done, 9);
    EXPECT_EQ(bdev->completed(), 9u);
    EXPECT_EQ(iomax.throttled(), 0u);
    EXPECT_EQ(iocost.throttled(), 0u);
    EXPECT_EQ(iolat.throttled(), 0u);
    EXPECT_GT(iocost.subtreeAbsOf(&b), 0.0);
    EXPECT_NO_THROW(bdev->finalInvariantChecks());
    EXPECT_GT(inv.checksPerformed(), 0u);
}

TEST_F(BdevFixture, ZeroSizeRejected)
{
    auto bdev = makeBdev({});
    EXPECT_THROW(bdev->submit(makeReq([] {}, OpType::kRead, 0)),
                 FatalError);
}

TEST_F(BdevFixture, WritesCompleteThroughPipeline)
{
    auto bdev = makeBdev({});
    int done = 0;
    for (int i = 0; i < 32; ++i)
        bdev->submit(makeReq([&] { ++done; }, OpType::kWrite, 4096,
                             static_cast<uint64_t>(i) * 4096));
    sim.runUntil(msToNs(50));
    EXPECT_EQ(done, 32);
    EXPECT_EQ(ssd.bytesWritten(), 32u * 4096u);
}

// --- Pinned pipeline outcomes ---------------------------------------------
//
// A fixed closed-loop read/write mix from several cgroups, run for a fixed
// simulated time under each elevator and each rq-qos gate. The expected
// figures are exact: any change to event order, gate admission, charge or
// requeue handling shows up here.

enum class PinCase
{
    kNone,
    kMqDeadline,
    kBfq,
    kKyber,
    kIoMax,
    kIoLatency,
    kIoCost,
    kTreeIoMaxIoCost, //!< 2-level tree: interior io.max + io.cost weights
    kIoCostTimeouts, //!< io.cost with requeuing NVMe command timeouts
};

struct PinOutcome
{
    uint64_t events;
    uint64_t completed;
    uint64_t bookkeeping;
    uint64_t timeouts;
    uint64_t requeues;
    uint64_t failed;
    uint64_t late;
    uint64_t completion_hash;
};

struct PinParam
{
    const char *name;
    PinCase pin;
    PinOutcome want;
};

void
PrintTo(const PinParam &param, std::ostream *os)
{
    *os << param.name;
}

/** One closed-loop issuer: `qd` requests from `cg`, each reissued on
 *  completion with a fresh random offset, op and size. */
struct PinIssuer
{
    cgroup::Cgroup *cg;
    uint32_t qd;
    uint32_t write_pct;
    std::vector<Request> reqs;
};

class PinnedPipeline : public ::testing::TestWithParam<PinParam>
{
  protected:
    PinnedPipeline() : ssd(sim, ssd::samsung980ProLike(), 11), rng(17) {}

    cgroup::Cgroup &
    group(cgroup::Cgroup &parent, const std::string &name, bool leaf)
    {
        cgroup::Cgroup &g = tree.createChild(parent, name);
        if (leaf)
            tree.attachProcess(g);
        else
            tree.enableIoController(g);
        return g;
    }

    void
    issue(PinIssuer &iss, Request &req)
    {
        req.op = rng.below(100) < iss.write_pct ? OpType::kWrite
                                                : OpType::kRead;
        req.size = 4096u << rng.below(4);
        req.offset = rng.below(1 << 18) * 4096;
        req.sequential = false;
        bdev->submit(&req);
    }

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xFF;
            hash *= 0x100000001b3ULL;
        }
    }

    sim::Simulator sim;
    cgroup::CgroupTree tree;
    ssd::SsdDevice ssd;
    Rng rng;
    std::unique_ptr<BlockDevice> bdev;
    std::vector<PinIssuer> issuers;
    uint64_t hash = 0xcbf29ce484222325ULL;
    static constexpr SimTime kRunFor = msToNs(60);
};

TEST_P(PinnedPipeline, OutcomeIsPinned)
{
    const PinParam &param = GetParam();
    tree.enableIoController(tree.root());
    BlockDeviceConfig cfg;
    switch (param.pin) {
      case PinCase::kNone:
      case PinCase::kMqDeadline:
      case PinCase::kBfq:
      case PinCase::kKyber:
      case PinCase::kIoMax:
      case PinCase::kIoLatency:
      case PinCase::kIoCost:
      case PinCase::kIoCostTimeouts: {
        cgroup::Cgroup &a = group(tree.root(), "a", true);
        cgroup::Cgroup &b = group(tree.root(), "b", true);
        issuers.push_back({&a, 4, 30, {}});
        issuers.push_back({&b, 16, 60, {}});
        if (param.pin == PinCase::kMqDeadline)
            cfg.elevator = ElevatorType::kMqDeadline;
        if (param.pin == PinCase::kBfq) {
            cfg.elevator = ElevatorType::kBfq;
            tree.writeFile(a, "io.bfq.weight", "300");
            tree.writeFile(b, "io.bfq.weight", "100");
        }
        if (param.pin == PinCase::kKyber) {
            cfg.elevator = ElevatorType::kKyber;
            cfg.kyber_params.read_lat_target = usToNs(100);
            cfg.kyber_params.write_depth = 4;
            cfg.kyber_params.tune_window = msToNs(5);
        }
        if (param.pin == PinCase::kIoMax) {
            cfg.enable_io_max = true;
            tree.writeFile(a, "io.max", "259:0 rbps=8388608");
            tree.writeFile(b, "io.max", "259:0 wiops=2000 riops=3000");
        }
        if (param.pin == PinCase::kIoLatency) {
            cfg.enable_io_latency = true;
            cfg.iolat_params.window = msToNs(5);
            tree.writeFile(a, "io.latency", "259:0 target=50");
        }
        break;
      }
      case PinCase::kTreeIoMaxIoCost: {
        cgroup::Cgroup &pod = group(tree.root(), "pod", false);
        cgroup::Cgroup &a = group(pod, "a", true);
        cgroup::Cgroup &b = group(pod, "b", true);
        cgroup::Cgroup &c = group(tree.root(), "c", true);
        issuers.push_back({&a, 4, 30, {}});
        issuers.push_back({&b, 8, 60, {}});
        issuers.push_back({&c, 8, 50, {}});
        cfg.enable_io_max = true;
        tree.writeFile(pod, "io.max", "259:0 rbps=16777216 wiops=3000");
        tree.writeFile(pod, "io.weight", "400");
        tree.writeFile(c, "io.weight", "100");
        tree.writeFile(a, "io.weight", "300");
        tree.writeFile(b, "io.weight", "100");
        break;
      }
    }
    if (param.pin == PinCase::kIoCost ||
        param.pin == PinCase::kTreeIoMaxIoCost ||
        param.pin == PinCase::kIoCostTimeouts) {
        cfg.enable_io_cost = true;
        cgroup::IoCostModel model;
        model.user = true;
        model.rbps = 1ull * GiB;
        model.rrandiops = 60000;
        model.wbps = 256ull * MiB;
        model.wrandiops = 20000;
        tree.setCostModel(0, model);
        cgroup::IoCostQos qos;
        qos.rpct = 95.0;
        qos.rlat = usToNs(300);
        qos.vrate_min = 50.0;
        tree.setCostQos(0, qos);
        tree.writeFile(*issuers[0].cg, "io.weight", "300");
    }
    if (param.pin == PinCase::kIoCostTimeouts) {
        cfg.nvme_timeout.enabled = true;
        cfg.nvme_timeout.command_timeout = usToNs(250);
        cfg.nvme_timeout.max_retries = 2;
        cfg.nvme_timeout.backoff_base = usToNs(50);
        cfg.nvme_timeout.backoff_cap = usToNs(400);
    }

    bdev = std::make_unique<BlockDevice>(sim, tree, ssd, cfg);
    bdev->start();
    for (size_t i = 0; i < issuers.size(); ++i) {
        PinIssuer &iss = issuers[i];
        iss.reqs.resize(iss.qd);
        for (Request &req : iss.reqs) {
            req.cg = iss.cg;
            req.on_complete = [this, i](Request *done) {
                mix(static_cast<uint64_t>(sim.now()));
                mix(i);
                mix(done->failed ? 1 : 0);
                if (sim.now() < kRunFor)
                    issue(issuers[i], *done);
            };
        }
    }
    for (PinIssuer &iss : issuers) {
        for (Request &req : iss.reqs)
            issue(iss, req);
    }
    sim.runUntil(kRunFor);

    const fault::HostFaultStats &fs = bdev->faultStats();
    PinOutcome got{sim.eventsExecuted(), bdev->completed(),
                   bdev->gateBookkeepingOps(), fs.timeouts, fs.requeues,
                   fs.failed_ios, fs.late_completions, hash};
    const PinOutcome &want = param.want;
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.bookkeeping, want.bookkeeping);
    EXPECT_EQ(got.timeouts, want.timeouts);
    EXPECT_EQ(got.requeues, want.requeues);
    EXPECT_EQ(got.failed, want.failed);
    EXPECT_EQ(got.late, want.late);
    EXPECT_EQ(got.completion_hash, want.completion_hash);
    if (param.pin == PinCase::kIoCostTimeouts) {
        EXPECT_GT(got.requeues, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PinnedPipeline,
    ::testing::Values(
        PinParam{"None", PinCase::kNone,
                 {86858u, 9203u, 0u, 0u, 0u, 0u, 0u,
                  0x3b456f0e4a96b1e5ULL}},
        PinParam{"MqDeadline", PinCase::kMqDeadline,
                 {105166u, 9188u, 0u, 0u, 0u, 0u, 0u,
                  0x68ddf5226b493c97ULL}},
        PinParam{"Bfq", PinCase::kBfq,
                 {45683u, 3931u, 29u, 0u, 0u, 0u, 0u,
                  0xeb7c7ab0845e0c3aULL}},
        PinParam{"Kyber", PinCase::kKyber,
                 {87029u, 9220u, 0u, 0u, 0u, 0u, 0u,
                  0x203cfb2a75d2177eULL}},
        PinParam{"IoMax", PinCase::kIoMax,
                 {2740u, 251u, 662u, 0u, 0u, 0u, 0u,
                  0x1be5b8521a5c1f06ULL}},
        PinParam{"IoLatency", PinCase::kIoLatency,
                 {71774u, 7491u, 48u, 0u, 0u, 0u, 0u,
                  0xfebefd16d3c8dc00ULL}},
        PinParam{"IoCost", PinCase::kIoCost,
                 {15415u, 1369u, 1426u, 0u, 0u, 0u, 0u,
                  0xf3acc6e0ee1e6d25ULL}},
        PinParam{"TreeIoMaxIoCost", PinCase::kTreeIoMaxIoCost,
                 {7989u, 683u, 2768u, 0u, 0u, 0u, 0u,
                  0xdee90ffcdfaba2dcULL}},
        PinParam{"IoCostTimeouts", PinCase::kIoCostTimeouts,
                 {15468u, 1350u, 1424u, 17u, 16u, 1u, 17u,
                  0x376bb5413bf3e371ULL}}),
    [](const ::testing::TestParamInfo<PinParam> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace isol::blk
