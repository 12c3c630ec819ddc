/**
 * @file
 * Unit and integration tests for the SSD model: FIFO resource servers,
 * FTL bookkeeping/GC, and end-to-end device behaviour (latency,
 * saturation, write cache, GC interference, Optane preset).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "common/types.hh"
#include "sim/simulator.hh"
#include "ssd/config.hh"
#include "ssd/device.hh"
#include "ssd/ftl.hh"
#include "ssd/resource.hh"
#include "stats/histogram.hh"

namespace isol::ssd
{
namespace
{

// A small flash config so FTL/GC tests run fast.
SsdConfig
tinyFlash()
{
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 64 * MiB;
    cfg.channels = 2;
    cfg.dies_per_channel = 2;
    cfg.pages_per_block = 32;
    cfg.overprovision = 0.25;
    return cfg;
}

TEST(FifoServer, ServesSerially)
{
    sim::Simulator sim;
    FifoServer server(sim);
    std::vector<SimTime> done;
    server.enqueue(100, [&] { done.push_back(sim.now()); });
    server.enqueue(50, [&] { done.push_back(sim.now()); });
    sim.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 100);
    EXPECT_EQ(done[1], 150); // waits for the first job
}

TEST(FifoServer, IdleGapsDoNotAccumulate)
{
    sim::Simulator sim;
    FifoServer server(sim);
    SimTime second_done = 0;
    server.enqueue(10, [] {});
    sim.at(1000, [&] {
        server.enqueue(10, [&] { second_done = sim.now(); });
    });
    sim.runAll();
    EXPECT_EQ(second_done, 1010); // starts fresh after the idle gap
    EXPECT_EQ(server.busyNs(), 20);
    EXPECT_EQ(server.jobs(), 2u);
}

TEST(FifoServer, BacklogReporting)
{
    sim::Simulator sim;
    FifoServer server(sim);
    EXPECT_FALSE(server.busy());
    EXPECT_EQ(server.backlog(), 0);
    server.enqueue(100, [] {});
    EXPECT_TRUE(server.busy());
    EXPECT_EQ(server.backlog(), 100);
}

TEST(Ftl, GeometryDerivation)
{
    SsdConfig cfg = tinyFlash();
    Ftl ftl(cfg);
    EXPECT_EQ(ftl.numDies(), 4u);
    // 64 MiB * 1.25 / 4 dies / (32 * 4 KiB) blocks.
    EXPECT_EQ(ftl.blocksPerDie(), 160u);
}

TEST(Ftl, UnmappedReadsResolveToStripe)
{
    Ftl ftl(tinyFlash());
    PhysLoc a = ftl.lookupRead(0);
    PhysLoc b = ftl.lookupRead(1);
    PhysLoc c = ftl.lookupRead(4);
    EXPECT_EQ(a.die, 0u);
    EXPECT_EQ(b.die, 1u);
    EXPECT_EQ(c.die, 0u); // wraps around 4 dies
}

TEST(Ftl, WriteInstallsMapping)
{
    Ftl ftl(tinyFlash());
    uint32_t die = ftl.takeHostWriteDie();
    PhysLoc loc = ftl.commitHostWrite(123, die);
    PhysLoc read = ftl.lookupRead(123);
    EXPECT_EQ(read.die, loc.die);
    EXPECT_EQ(read.block, loc.block);
    EXPECT_EQ(read.page, loc.page);
    EXPECT_EQ(ftl.hostPagesWritten(), 1u);
}

TEST(Ftl, OverwriteInvalidatesOldLocation)
{
    Ftl ftl(tinyFlash());
    ftl.commitHostWrite(7, 0);
    PhysLoc first = ftl.lookupRead(7);
    ftl.commitHostWrite(7, 0);
    PhysLoc second = ftl.lookupRead(7);
    EXPECT_NE(first.page, second.page);
    EXPECT_EQ(ftl.hostPagesWritten(), 2u);
}

TEST(Ftl, RoundRobinWritePointer)
{
    Ftl ftl(tinyFlash());
    EXPECT_EQ(ftl.takeHostWriteDie(), 0u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 1u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 2u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 3u);
    EXPECT_EQ(ftl.takeHostWriteDie(), 0u);
}

TEST(Ftl, SequentialFillLeavesDeviceWritable)
{
    Ftl ftl(tinyFlash());
    ftl.preconditionSequentialFill(1.0);
    for (uint32_t die = 0; die < ftl.numDies(); ++die)
        EXPECT_FALSE(ftl.hostWriteStalled(die)) << "die " << die;
}

TEST(Ftl, RandomOverwriteTriggersGc)
{
    SsdConfig cfg = tinyFlash();
    Ftl ftl(cfg);
    Rng rng(5);
    ftl.preconditionSequentialFill(1.0);
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages() * 2, rng);
    EXPECT_GT(ftl.blocksErased(), 0u);
    EXPECT_GT(ftl.waf(), 1.0);
    // Every die must stay writable in steady state.
    for (uint32_t die = 0; die < ftl.numDies(); ++die)
        EXPECT_FALSE(ftl.hostWriteStalled(die));
}

TEST(Ftl, WafIsBoundedInSteadyState)
{
    SsdConfig cfg = tinyFlash();
    Ftl ftl(cfg);
    Rng rng(5);
    ftl.preconditionSequentialFill(1.0);
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages(), rng);
    ftl.resetStats();
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages(), rng);
    // Greedy GC with 25% OP should keep WAF in a sane band.
    EXPECT_GT(ftl.waf(), 1.0);
    EXPECT_LT(ftl.waf(), 6.0);
}

TEST(Ftl, ResetStatsClearsCounters)
{
    Ftl ftl(tinyFlash());
    ftl.commitHostWrite(1, 0);
    ftl.resetStats();
    EXPECT_EQ(ftl.hostPagesWritten(), 0u);
    EXPECT_EQ(ftl.gcPagesMoved(), 0u);
    EXPECT_EQ(ftl.blocksErased(), 0u);
    EXPECT_DOUBLE_EQ(ftl.waf(), 1.0);
}

TEST(Ftl, FreeFractionDecreasesWithWrites)
{
    Ftl ftl(tinyFlash());
    double before = ftl.freeFraction(0);
    for (int i = 0; i < 1000; ++i)
        ftl.commitHostWrite(static_cast<uint64_t>(i) * 4, 0);
    EXPECT_LT(ftl.freeFraction(0), before);
}

TEST(Ftl, RejectsBadGeometry)
{
    SsdConfig cfg = tinyFlash();
    cfg.channels = 0;
    EXPECT_THROW(Ftl{cfg}, FatalError);

    SsdConfig tiny = tinyFlash();
    tiny.user_capacity = 1 * MiB; // too few blocks per die
    EXPECT_THROW(Ftl{tiny}, FatalError);
}

// A mid-sized drive: big enough for many GC cycles per die, small enough
// to precondition in well under a second.
SsdConfig
midFlash()
{
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 512 * MiB;
    cfg.channels = 4;
    cfg.dies_per_channel = 4;
    return cfg;
}

// FNV-1a over the physical location every LPN reads from.
uint64_t
mappingDigest(const Ftl &ftl, uint64_t num_lpns)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    for (uint64_t lpn = 0; lpn < num_lpns; ++lpn) {
        PhysLoc loc = ftl.lookupRead(lpn);
        mix(loc.die);
        mix(loc.block);
        mix(loc.page);
    }
    return h;
}

TEST(Ftl, PreconditionOutcomeIsPinned)
{
    // Pins the exact steady state SsdDevice::precondition(1.0, 2.0)
    // installs for seed 42: any change to the RNG draw order, victim
    // choice or move order shows up here. The Ftl replays the device's
    // sequence (sequential fill, then 2 passes of random overwrites from
    // an Rng seeded like the device's) so the GC counters, which the
    // device resets after preconditioning, can be read.
    SsdConfig cfg = midFlash();
    constexpr uint64_t kSeed = 42;
    Ftl ftl(cfg);
    Rng rng(kSeed);
    ftl.preconditionSequentialFill(1.0);
    ftl.preconditionRandomOverwrite(cfg.numLogicalPages() * 2, rng);
    EXPECT_EQ(ftl.gcPagesMoved(), 632005u);
    EXPECT_EQ(ftl.blocksErased(), 3383u);
    EXPECT_EQ(mappingDigest(ftl, cfg.numLogicalPages()),
              0x9f17d841fbbba2e5ULL);

    sim::Simulator sim;
    SsdDevice dev(sim, cfg, kSeed);
    dev.precondition(1.0, 2.0);
    EXPECT_EQ(mappingDigest(dev.ftl(), cfg.numLogicalPages()),
              mappingDigest(ftl, cfg.numLogicalPages()));
}

// What the Ftl constructor's fatal() says for `cfg` ("" if it accepts).
std::string
constructorError(const SsdConfig &cfg)
{
    try {
        Ftl ftl(cfg);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Ftl, RejectsLogicalSpaceBeyondReverseMapEntries)
{
    // 16 TiB of 4 KiB pages is 2^32 LPNs: lpn + 1 no longer fits the
    // 32-bit reverse map. Rejected before any map is allocated.
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 16384 * GiB;
    EXPECT_THROW(Ftl{cfg}, FatalError);
    EXPECT_NE(constructorError(cfg).find("reverse-map"), std::string::npos);
}

TEST(Ftl, RejectsGeometryWhoseLastSlotPacksToUnmapped)
{
    // 256 dies x 4096 blocks x 4096 pages: the last slot packs to
    // 0xFFFFFFFF, which wraps to the unmapped value 0 as packed + 1.
    // (2^31 LPNs, so the reverse-map limit does not fire first.)
    SsdConfig cfg = samsung980ProLike();
    cfg.channels = 16;
    cfg.dies_per_channel = 16;
    cfg.pages_per_block = 4096;
    cfg.user_capacity = 8192 * GiB;
    cfg.overprovision = 1.0;
    ASSERT_EQ(cfg.blocksPerDie(), 4096u);
    EXPECT_THROW(Ftl{cfg}, FatalError);
    EXPECT_NE(constructorError(cfg).find("collides with unmapped"),
              std::string::npos);
}

#ifdef __linux__
// Resident set size of this process, in bytes.
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size_pages = 0;
    uint64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(Ftl, FreshDriveCostsLittleResidentMemory)
{
    // The maps are zero-filled but untouched, so a drive nobody writes
    // (every read-only paper scenario) pays only for per-block metadata.
    uint64_t before = residentBytes();
    auto ftl = std::make_unique<Ftl>(samsung980ProLike());
    uint64_t after = residentBytes();
    EXPECT_LT(after, before + 4 * MiB) << "grew by " << after - before;
    EXPECT_EQ(ftl->lookupRead(12345).die, 12345u % ftl->numDies());
}
#endif

// --- Device integration ---------------------------------------------------

TEST(SsdDevice, FullPresetConsistentAfterPrecondition)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike(), 7);
    dev.precondition(1.0, 2.0);
    std::string error;
    EXPECT_TRUE(dev.ftl().checkInvariants(&error)) << error;
}

TEST(SsdDevice, ReadLatencyNearFlashRead)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    SimTime done_at = -1;
    dev.submit(OpType::kRead, 0, 4096, [&] { done_at = sim.now(); });
    sim.runAll();
    ASSERT_GT(done_at, 0);
    // tR (with jitter) + channel + link + controller: well under 2x tR.
    EXPECT_GT(done_at, cfg.read_latency / 2);
    EXPECT_LT(done_at, cfg.read_latency * 2);
}

TEST(SsdDevice, WriteCompletesFastViaCache)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    SimTime done_at = -1;
    dev.submit(OpType::kWrite, 0, 4096, [&] { done_at = sim.now(); });
    sim.runAll();
    ASSERT_GT(done_at, 0);
    // Cache-acked writes are much faster than a flash program.
    EXPECT_LT(done_at, cfg.program_latency / 2);
    EXPECT_EQ(dev.bytesWritten(), 4096u);
}

TEST(SsdDevice, RandomReadSaturationNearCalibration)
{
    // Keep ~2048 random 4 KiB reads outstanding for 50 ms and check the
    // aggregate bandwidth is near the calibrated ~2.9-3.2 GiB/s point.
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    Rng rng(17);

    uint64_t completed_bytes = 0;
    std::function<void()> issue = [&] {
        uint64_t offset = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kRead, offset, 4096, [&] {
            completed_bytes += 4096;
            if (sim.now() < msToNs(50))
                issue();
        });
    };
    for (int i = 0; i < 2048; ++i)
        issue();
    sim.runUntil(msToNs(50));

    double gibs = bytesOverNsToGiBs(completed_bytes, msToNs(50));
    EXPECT_GT(gibs, 2.5);
    EXPECT_LT(gibs, 3.4);
}

TEST(SsdDevice, LargeReadsHitLinkCap)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    Rng rng(17);

    uint64_t completed_bytes = 0;
    const uint32_t size = 256 * KiB;
    std::function<void()> issue = [&] {
        uint64_t offset = rng.below(cfg.user_capacity / size) * size;
        dev.submit(OpType::kRead, offset, size, [&] {
            completed_bytes += size;
            if (sim.now() < msToNs(50))
                issue();
        });
    };
    for (int i = 0; i < 64; ++i)
        issue();
    sim.runUntil(msToNs(50));

    double gibs = bytesOverNsToGiBs(completed_bytes, msToNs(50));
    // Bounded by the ~3.2 GiB/s host link.
    EXPECT_GT(gibs, 2.3);
    EXPECT_LT(gibs, 3.3);
}

TEST(SsdDevice, SustainedWritesAreProgramBound)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 256 * MiB; // shrink so preconditioning is fast
    cfg.channels = 4;
    cfg.dies_per_channel = 4; // keep enough blocks per die
    SsdDevice dev(sim, cfg);
    dev.precondition(1.0, 2.0); // deep steady state: stable WAF from t=0
    Rng rng(23);

    uint64_t completed = 0;
    std::function<void()> issue = [&] {
        uint64_t offset = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kWrite, offset, 4096, [&] {
            completed += 4096;
            if (sim.now() < msToNs(200))
                issue();
        });
    };
    for (int i = 0; i < 256; ++i)
        issue();
    sim.runUntil(msToNs(200));

    double gibs = bytesOverNsToGiBs(completed, msToNs(200));
    // Far below the read ceiling: programs + GC dominate. The 16-die
    // test device sustains ~0.05 GiB/s (the full 64-die preset ~4x).
    EXPECT_LT(gibs, 1.8);
    EXPECT_GT(gibs, 0.02);
    EXPECT_GT(dev.waf(), 1.0);
    EXPECT_LT(dev.waf(), 30.0);
}

TEST(SsdDevice, GcInterferesWithReads)
{
    // Measure read-only P99, then P99 with concurrent heavy writes; the
    // interference (GC + program occupancy) must raise the tail clearly.
    auto run = [](bool with_writes) {
        sim::Simulator sim;
        SsdConfig cfg = samsung980ProLike();
        cfg.user_capacity = 256 * MiB;
        cfg.channels = 4;
        cfg.dies_per_channel = 4;
        SsdDevice dev(sim, cfg, 99);
        dev.precondition(1.0, 1.0);
        Rng rng(31);
        stats::Histogram lat;

        std::function<void()> read_loop = [&] {
            uint64_t offset = rng.below(cfg.user_capacity / 4096) * 4096;
            SimTime start = sim.now();
            dev.submit(OpType::kRead, offset, 4096, [&, start] {
                lat.record(sim.now() - start);
                if (sim.now() < msToNs(300))
                    read_loop();
            });
        };
        read_loop();

        // Declared at function scope: completion callbacks reference it
        // for the whole run.
        std::function<void()> write_loop = [&] {
            uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
            dev.submit(OpType::kWrite, off, 4096, [&] {
                if (sim.now() < msToNs(300))
                    write_loop();
            });
        };
        if (with_writes) {
            for (int i = 0; i < 128; ++i)
                write_loop();
        }
        sim.runUntil(msToNs(300));
        return lat.percentile(99);
    };

    int64_t p99_clean = run(false);
    int64_t p99_writes = run(true);
    EXPECT_GT(p99_writes, p99_clean * 2);
}

TEST(SsdDevice, OptaneFlatLatency)
{
    sim::Simulator sim;
    SsdConfig cfg = optaneLike();
    SsdDevice dev(sim, cfg);
    SimTime read_done = -1;
    SimTime write_done = -1;
    dev.submit(OpType::kRead, 0, 4096, [&] { read_done = sim.now(); });
    sim.runAll();
    SimTime start = sim.now();
    dev.submit(OpType::kWrite, 4096, 4096,
               [&] { write_done = sim.now() - start; });
    sim.runAll();
    // Both around 12-20 us; read/write symmetric within 2x.
    EXPECT_LT(read_done, usToNs(25));
    EXPECT_LT(write_done, usToNs(25));
    EXPECT_GT(read_done, usToNs(5));
    EXPECT_GT(write_done, usToNs(5));
}

TEST(SsdDevice, OptaneNeedsNoGc)
{
    sim::Simulator sim;
    SsdConfig cfg = optaneLike();
    cfg.user_capacity = 64 * MiB;
    SsdDevice dev(sim, cfg, 3);
    Rng rng(3);
    uint64_t completed = 0;
    std::function<void()> loop = [&] {
        uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kWrite, off, 4096, [&] {
            completed += 4096;
            if (sim.now() < msToNs(100))
                loop();
        });
    };
    for (int i = 0; i < 64; ++i)
        loop();
    sim.runUntil(msToNs(100));
    EXPECT_EQ(dev.blocksErased(), 0u);
    EXPECT_DOUBLE_EQ(dev.waf(), 1.0);
    EXPECT_GT(completed, 0u);
}

TEST(SsdDevice, ZeroSizeRejected)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike());
    EXPECT_THROW(dev.submit(OpType::kRead, 0, 0, [] {}), FatalError);
}

TEST(SsdDevice, OffsetsWrapCapacity)
{
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    SsdDevice dev(sim, cfg);
    bool done = false;
    dev.submit(OpType::kRead, cfg.user_capacity + 4096, 4096,
               [&] { done = true; });
    sim.runAll();
    EXPECT_TRUE(done);
}

TEST(SsdDevice, CountersTrackCompletions)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike());
    for (int i = 0; i < 10; ++i)
        dev.submit(OpType::kRead, static_cast<uint64_t>(i) * 8192, 8192,
                   [] {});
    sim.runAll();
    EXPECT_EQ(dev.readsCompleted(), 10u);
    EXPECT_EQ(dev.bytesRead(), 10u * 8192u);
    EXPECT_GT(dev.totalDieBusyNs(), 0);
}

TEST(SsdDevice, ReadsPreferredWithoutWritePressure)
{
    // A light writer next to readers: reads keep most of their solo
    // throughput because the controller prefers reads 3:1 when the
    // write cache is not under pressure.
    auto read_iops = [](bool with_light_writes) {
        sim::Simulator sim;
        SsdConfig cfg = samsung980ProLike();
        cfg.user_capacity = 512 * MiB;
        cfg.channels = 4;
        cfg.dies_per_channel = 4;
        SsdDevice dev(sim, cfg, 21);
        dev.precondition(1.0, 1.0);
        Rng rng(21);
        uint64_t reads = 0;
        std::function<void()> read_loop = [&] {
            uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
            dev.submit(OpType::kRead, off, 4096, [&] {
                ++reads;
                if (sim.now() < msToNs(100))
                    read_loop();
            });
        };
        std::function<void()> write_loop = [&] {
            uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
            dev.submit(OpType::kWrite, off, 4096, [&] {
                if (sim.now() < msToNs(100))
                    sim.after(usToNs(200), write_loop); // light load
            });
        };
        for (int i = 0; i < 64; ++i)
            read_loop();
        if (with_light_writes) {
            for (int i = 0; i < 4; ++i)
                write_loop();
        }
        sim.runUntil(msToNs(100));
        return reads;
    };
    uint64_t solo = read_iops(false);
    uint64_t with_writes = read_iops(true);
    EXPECT_GT(with_writes, solo / 2);
}

TEST(SsdDevice, WriteFloodCollapsesReads)
{
    // A saturating writer flips the controller into flush mode: reads
    // lose most of their throughput (the paper's mixed R/W collapse).
    sim::Simulator sim;
    SsdConfig cfg = samsung980ProLike();
    cfg.user_capacity = 512 * MiB;
    cfg.channels = 4;
    cfg.dies_per_channel = 4;
    SsdDevice dev(sim, cfg, 23);
    dev.precondition(1.0, 2.0);
    Rng rng(23);
    uint64_t reads = 0;
    uint64_t writes = 0;
    std::function<void()> read_loop = [&] {
        uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kRead, off, 4096, [&] {
            ++reads;
            if (sim.now() < msToNs(400))
                read_loop();
        });
    };
    std::function<void()> write_loop = [&] {
        uint64_t off = rng.below(cfg.user_capacity / 4096) * 4096;
        dev.submit(OpType::kWrite, off, 4096, [&] {
            ++writes;
            if (sim.now() < msToNs(400))
                write_loop();
        });
    };
    for (int i = 0; i < 64; ++i)
        read_loop();
    for (int i = 0; i < 512; ++i)
        write_loop();
    sim.runUntil(msToNs(400));
    EXPECT_GT(writes, 0u);
    EXPECT_GT(reads, 0u); // not fully starved...
    // ...but far below the ~190k 4KiB reads this device serves solo.
    EXPECT_LT(reads, 60000u);
}

TEST(SsdDevice, UtilizationBetweenZeroAndOne)
{
    sim::Simulator sim;
    SsdDevice dev(sim, samsung980ProLike());
    for (int i = 0; i < 100; ++i)
        dev.submit(OpType::kRead, static_cast<uint64_t>(i) * 4096, 4096,
                   [] {});
    sim.runAll();
    double u = dev.dieUtilization();
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
}

} // namespace
} // namespace isol::ssd
