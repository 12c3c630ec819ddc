/**
 * @file
 * QosStage: one rq-qos policy in front of the elevator, modelled on the
 * kernel's `rq_qos_ops`. A BlockDevice keeps its enabled stages in one
 * ordered list (io.max -> io.cost -> io.latency, the kernel's order) and
 * drives each through the same hooks. The base owns what every policy
 * shares: the pass continuation into the next stage, the simulator /
 * device / cgroup-tree references, the cgroup-removal subscription, the
 * invariant checker and the throttled / bookkeeping counters.
 */
// isol: domain(blk)

#ifndef ISOL_BLK_QOS_STAGE_HH
#define ISOL_BLK_QOS_STAGE_HH

#include <string>

#include "blk/request.hh"
#include "cgroup/cgroup.hh"
#include "sim/invariants.hh"
#include "sim/simulator.hh"

namespace isol::blk
{

/** Name of a request's cgroup for invariant messages. */
inline std::string
groupLabel(const cgroup::Cgroup *cg)
{
    return cg != nullptr ? cg->name() : std::string("<root>");
}

class QosStage
{
  public:
    /** Passes a request to the next stage (or into the tags). */
    using PassFn = sim::SmallFunction<void(Request *)>;

    QosStage(const QosStage &) = delete;
    QosStage &operator=(const QosStage &) = delete;
    virtual ~QosStage() = default;

    /** Throttle hook: admit `req` with pass() now or hold it. */
    virtual void submit(Request *req) = 0;

    /** The request's in-flight attempt was aborted and will be
     *  reissued. */
    virtual void onRequeue(Request *) {}

    /** Done hook: the request completed (or failed) at the device. */
    virtual void onComplete(Request *) {}

    /** Arm periodic controllers. */
    virtual void start() {}

    /** End-of-run conservation checks; no-op when checking is off. */
    virtual void finalChecks() {}

    /** Requests currently held back. */
    size_t throttled() const { return throttled_; }

    /** Deterministic per-cgroup bookkeeping work done so far. */
    uint64_t bookkeepingOps() const { return bookkeeping_ops_; }

    /** Opt-in runtime invariant checking (nullptr = off). */
    void setInvariants(sim::InvariantChecker *inv) { inv_ = inv; }

    /** Submit-side CPU one I/O costs in this stage. */
    SimTime cpuCost() const { return cpu_cost_; }

  protected:
    QosStage(sim::Simulator &sim, cgroup::DeviceId dev,
             cgroup::CgroupTree &tree, PassFn pass, SimTime cpu_cost)
        : sim_(sim), dev_(dev), tree_(tree), pass_(std::move(pass)),
          cpu_cost_(cpu_cost),
          removal_(tree.subscribeRemoval(
              [this](cgroup::Cgroup &cg) { onCgroupRemoved(cg); }))
    {
    }

    /** Hand an admitted request to the next stage. */
    void pass(Request *req) { pass_(req); }

    /** Drop per-cgroup state: `cg` is about to be destroyed. */
    virtual void onCgroupRemoved(cgroup::Cgroup &cg) = 0;

    sim::Simulator &sim_;
    const cgroup::DeviceId dev_;
    cgroup::CgroupTree &tree_;
    sim::InvariantChecker *inv_ = nullptr;
    size_t throttled_ = 0;
    uint64_t bookkeeping_ops_ = 0;

  private:
    PassFn pass_;
    const SimTime cpu_cost_;
    cgroup::RemovalSubscription removal_;
};

} // namespace isol::blk

#endif // ISOL_BLK_QOS_STAGE_HH
