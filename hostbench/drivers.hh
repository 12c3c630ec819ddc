/**
 * @file
 * Per-layer drivers of the traced run. Each one times calls into one
 * layer's public entry point from outside the program, fed with a
 * scenario's own op mix, block sizes, queue depths and cgroups. A
 * tenant's queue depth here is its mean number of I/Os in flight during
 * the scenario's full run (`depths`), so a driver loads the layer as the
 * scenario did rather than at every tenant's nominal iodepth:
 *
 *   sim  Simulator::after + step with empty callbacks
 *   ssd  closed loop of SsdDevice::submit on its own Simulator
 *   blk  closed loop of BlockDevice::submit under the scenario's knob
 *
 * The ssd and blk drivers are built first and run later, so a caller can
 * prepare every scenario's driver before timing any of them. A layer's
 * self time per I/O is its driver's span per I/O minus that of the
 * driver below it (README.md, "Per-layer attribution").
 */

#ifndef HOSTBENCH_DRIVERS_HH
#define HOSTBENCH_DRIVERS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "blk/request.hh"
#include "common/rng.hh"
#include "ssd/device.hh"
#include "workload/job.hh"
#include "workloads.hh"

namespace hostbench
{

/** Host seconds since an arbitrary fixed point (steady clock). */
double nowSeconds();

/** What one closed-loop driver did. */
struct DriverSpan
{
    double seconds = 0.0; //!< host time of the timed loop
    uint64_t ios = 0; //!< I/Os completed inside the loop
    uint64_t events = 0; //!< simulator events executed inside the loop
};

/**
 * One tenant's request stream: the op mix, offsets and size of its spec
 * (uniform random or sequential over the spec's range, as FioJob).
 */
class Stream
{
  public:
    Stream(const isol::workload::JobSpec &spec, uint64_t seed);

    isol::OpType op();
    uint64_t offset();
    const isol::workload::JobSpec &spec() const { return spec_; }

  private:
    isol::workload::JobSpec spec_;
    isol::Rng rng_;
    uint64_t cursor_ = 0;
};

/**
 * Execute `events` events while holding `depth` events pending, each
 * rescheduled with a log-uniform delay in [100 ns, 1 ms). Returns the
 * host seconds of the loop.
 */
double runSimDriver(uint64_t events, uint64_t depth, uint64_t seed);

/**
 * Closed loop on the scenario's device model: tenant i of `specs` keeps
 * depths[i] I/Os outstanding directly on an SsdDevice.
 */
class SsdDriver
{
  public:
    /** Builds (and, like the scenario, preconditions) the drive. */
    SsdDriver(const ScenarioDef &def,
              const std::vector<isol::workload::JobSpec> &specs,
              std::vector<uint32_t> depths);
    SsdDriver(const SsdDriver &) = delete;
    SsdDriver &operator=(const SsdDriver &) = delete;

    /** Host seconds of building the drive. */
    double setupSeconds() const { return setup_s_; }

    /** Runs until `target_ios` complete. Call once. */
    DriverSpan run(uint64_t target_ios);

  private:
    void issue(uint32_t i);

    isol::SimTime horizon_;
    std::vector<uint32_t> depths_;
    std::vector<Stream> streams_;
    isol::sim::Simulator sim_;
    double setup_s_ = 0.0;
    std::unique_ptr<isol::ssd::SsdDevice> dev_;
    uint64_t done_ = 0;
};

/**
 * Closed loop on the scenario's block device: the scenario is built
 * (cgroups, knob files, device) but its jobs never start; instead tenant
 * i keeps depths[i] blk::Requests in BlockDevice::submit.
 */
class BlkDriver
{
  public:
    BlkDriver(const ScenarioDef &def, std::vector<uint32_t> depths);
    BlkDriver(const BlkDriver &) = delete;
    BlkDriver &operator=(const BlkDriver &) = delete;

    /** The tenants' specs as the scenario resolved them. */
    const std::vector<isol::workload::JobSpec> &specs() const
    {
        return specs_;
    }

    /** Runs until `target_ios` complete. Call once. */
    DriverSpan run(uint64_t target_ios);

  private:
    void issue(uint32_t i, isol::blk::Request *req);

    isol::SimTime horizon_;
    std::vector<uint32_t> depths_;
    std::vector<isol::workload::JobSpec> specs_;
    std::vector<Stream> streams_;
    // Declared before the scenario so in-flight requests outlive the
    // device queues that point at them.
    std::vector<isol::blk::Request> reqs_;
    std::unique_ptr<Scenario> scenario_;
    uint64_t done_ = 0;
};

} // namespace hostbench

#endif // HOSTBENCH_DRIVERS_HH
