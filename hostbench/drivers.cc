#include "drivers.hh"

#include <chrono>
#include <cmath>
#include <functional>

namespace hostbench
{

using namespace isol;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace
{

/**
 * A closed-loop driver that cannot reach its I/O target within this many
 * scenario durations of simulated time stops there and reports what it
 * completed.
 */
constexpr SimTime kHorizonFactor = 4;

std::vector<Stream>
makeStreams(const std::vector<workload::JobSpec> &specs)
{
    std::vector<Stream> streams;
    streams.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        streams.emplace_back(specs[i], specs[i].seed ^ (uint64_t{i} << 32));
    return streams;
}

/**
 * Times `start` plus stepping `sim` until `done` reaches `target` or
 * `horizon` passes.
 */
DriverSpan
timedLoop(sim::Simulator &sim, const uint64_t &done, uint64_t target,
          SimTime horizon, const std::function<void()> &start)
{
    uint64_t events0 = sim.eventsExecuted();
    double t0 = nowSeconds();
    start();
    while (done < target && sim.now() <= horizon && sim.step()) {
    }
    return {nowSeconds() - t0, done, sim.eventsExecuted() - events0};
}

} // namespace

Stream::Stream(const workload::JobSpec &spec, uint64_t seed)
    : spec_(spec), rng_(seed)
{
}

OpType
Stream::op()
{
    if (spec_.read_fraction >= 1.0)
        return OpType::kRead;
    if (spec_.read_fraction <= 0.0)
        return OpType::kWrite;
    return rng_.chance(spec_.read_fraction) ? OpType::kRead : OpType::kWrite;
}

uint64_t
Stream::offset()
{
    uint64_t blocks = std::max<uint64_t>(spec_.range / spec_.block_size, 1);
    uint64_t block = spec_.pattern == AccessPattern::kSequential
                         ? cursor_++ % blocks
                         : rng_.below(blocks);
    return spec_.offset_base + block * spec_.block_size;
}

double
runSimDriver(uint64_t events, uint64_t depth, uint64_t seed)
{
    // Delays come from a precomputed table so the loop times only the
    // event engine, not the delay generator.
    constexpr size_t kDelays = 4096;
    std::vector<SimTime> delays(kDelays);
    Rng rng(seed);
    for (SimTime &d : delays)
        d = static_cast<SimTime>(100.0 * std::exp2(rng.uniform() * 13.3));

    sim::Simulator sim;
    size_t k = 0;
    for (uint64_t i = 0; i < depth; ++i)
        sim.after(delays[k++ % kDelays], [] {});
    double t0 = nowSeconds();
    for (uint64_t i = 0; i < events; ++i) {
        sim.step();
        sim.after(delays[k++ % kDelays], [] {});
    }
    return nowSeconds() - t0;
}

SsdDriver::SsdDriver(const ScenarioDef &def,
                     const std::vector<workload::JobSpec> &specs,
                     std::vector<uint32_t> depths)
    : horizon_(def.cfg.duration * kHorizonFactor),
      depths_(std::move(depths)), streams_(makeStreams(specs))
{
    ssd::SsdConfig scfg = def.cfg.device;
    scfg.faults = def.cfg.faults.device;
    double t = nowSeconds();
    dev_ = std::make_unique<ssd::SsdDevice>(sim_, scfg, def.cfg.seed);
    if (def.cfg.precondition)
        dev_->precondition(1.0, 2.0); // same fill as Scenario's constructor
    setup_s_ = nowSeconds() - t;
}

void
SsdDriver::issue(uint32_t i)
{
    Stream &st = streams_[i];
    dev_->submit(st.op(), st.offset(), st.spec().block_size, [this, i] {
        ++done_;
        issue(i);
    });
}

DriverSpan
SsdDriver::run(uint64_t target_ios)
{
    return timedLoop(sim_, done_, target_ios, horizon_, [this] {
        for (uint32_t i = 0; i < streams_.size(); ++i) {
            for (uint32_t q = 0; q < depths_.at(i); ++q)
                issue(i);
        }
    });
}

BlkDriver::BlkDriver(const ScenarioDef &def, std::vector<uint32_t> depths)
    : horizon_(def.cfg.duration * kHorizonFactor),
      depths_(std::move(depths)),
      scenario_(std::make_unique<Scenario>(def.cfg))
{
    Scenario &s = *scenario_;
    def.populate(s);
    blk::BlockDevice &bdev = s.device(0);
    size_t total_depth = 0;
    for (uint32_t i = 0; i < s.numApps(); ++i) {
        specs_.push_back(s.app(i).spec());
        total_depth += depths_.at(i);
        // What FioJob::start does: the tenant's process joins its group.
        s.tree().attachProcess(s.appGroup(i));
        bdev.registerSubmitter();
    }
    streams_ = makeStreams(specs_);
    reqs_.resize(total_depth);
    size_t r = 0;
    for (uint32_t i = 0; i < s.numApps(); ++i) {
        for (uint32_t q = 0; q < depths_[i]; ++q) {
            blk::Request &req = reqs_[r++];
            req.size = specs_[i].block_size;
            req.cg = &s.appGroup(i);
            req.sequential = specs_[i].pattern == AccessPattern::kSequential;
            req.on_complete = [this, i](blk::Request *done) {
                ++done_;
                issue(i, done);
            };
        }
    }
    bdev.start();
}

void
BlkDriver::issue(uint32_t i, blk::Request *req)
{
    Stream &st = streams_[i];
    req->op = st.op();
    req->offset = st.offset();
    scenario_->device(0).submit(req);
}

DriverSpan
BlkDriver::run(uint64_t target_ios)
{
    return timedLoop(scenario_->sim(), done_, target_ios, horizon_, [this] {
        size_t r = 0;
        for (uint32_t i = 0; i < depths_.size(); ++i) {
            for (uint32_t q = 0; q < depths_[i]; ++q)
                issue(i, &reqs_[r++]);
        }
    });
}

} // namespace hostbench
