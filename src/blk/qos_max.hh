/**
 * @file
 * io.max throttling (Linux blk-throttle) model.
 *
 * Each cgroup gets four token buckets per device (rbps/wbps/riops/wiops).
 * A request passes when every applicable bucket has credit; otherwise it
 * queues FIFO inside its cgroup and is released when its dimensions are
 * satisfied. As in the kernel, accumulated idle credit is capped at one
 * throttle slice so a limit cannot be burst around after an idle period.
 *
 * Enforcement is hierarchical (kernel blk-throttle walks the
 * throtl_grp ancestors): a request must clear the buckets of its own
 * cgroup *and* of every ancestor that sets a limit, and admission
 * charges the whole chain. An io.max written at an interior node is
 * therefore a shared token bucket capping the subtree's aggregate. The
 * walk follows the cgroup's cached ancestor-chain of dense ids into
 * flat arena state, so it is O(depth) with no hashing.
 *
 * Waiting follows blk-throttle's service queues. A group whose head
 * request is blocked by its *own* bucket arms its own dispatch timer. A
 * group blocked by an *ancestor's* bucket parks once in that ancestor's
 * waiter ring for the request's direction; each limited node owns one
 * pending dispatch timer per direction, and when it fires it serves its
 * waiters round-robin, one request per turn, until its credit runs out,
 * then re-arms once. Siblings under a shared cap thus split it evenly
 * and an admission costs about one event, however many siblings wait.
 *
 * io.max is static: it never unthrottles in the absence of other load,
 * which is exactly the non-work-conserving behaviour the paper measures
 * (O8, Fig. 2e).
 */
// isol: domain(blk)

#ifndef ISOL_BLK_QOS_MAX_HH
#define ISOL_BLK_QOS_MAX_HH

#include "blk/cg_state.hh"
#include "blk/qos_stage.hh"
#include "common/ring.hh"

namespace isol::blk
{

/**
 * Per-device io.max gate.
 */
class IoMaxGate final : public QosStage
{
  public:
    /** Submit-side CPU per I/O (limit lookup + bucket update). */
    static constexpr SimTime kCpuCost = nsToNs(450);

    /**
     * @param sim simulator
     * @param dev device id used to look up io.max limits in the cgroup
     * @param tree cgroup hierarchy (ancestor walks, removal listener)
     * @param pass downstream continuation
     */
    IoMaxGate(sim::Simulator &sim, cgroup::DeviceId dev,
              cgroup::CgroupTree &tree, PassFn pass);

    /** Admit or queue a request. */
    void submit(Request *req) override;

    /**
     * End-of-run hierarchical conservation: for every interior node,
     * the sum of its children's subtree consumption must not exceed its
     * own (charges always walk whole chains). No-op when checking is
     * off.
     */
    void finalChecks() override;

    /** Groups with live gate state (shrinks on cgroup removal). */
    size_t trackedGroups() const { return states_.size(); }

    /** Bytes consumed against `cg`'s buckets, subtree-wide (testing). */
    uint64_t consumedBytesOf(const cgroup::Cgroup *cg) const;

    /**
     * Mutation hook for negative tests: after a fixed number of credit
     * consumptions, corrupt one token bucket by moving its horizon to a
     * negative time — exactly the accounting bug the invariant checker's
     * non-negativity check must catch.
     */
    void setDebugCorruptBucket(bool on) { debug_corrupt_bucket_ = on; }

  private:
    /**
     * Virtual-time token bucket: `next_free` is the time at which enough
     * credit exists for the next unit; consuming advances it.
     */
    struct Bucket
    {
        SimTime next_free = 0;
        double inv_last = 0.0; //!< monotone-series slot (checker)
    };

    /**
     * Queue entry with the admission-relevant fields laid out inline so
     * drain scans never dereference the Request until it passes.
     */
    struct QEnt
    {
        Request *req;
        OpType op;
        uint32_t size;
    };

    /** No group: an empty waiter ring or link. */
    static constexpr cgroup::CgroupId kNoGroup = UINT32_MAX;

    /** Direction index of the per-node waiter rings and timers. */
    static constexpr int kRead = 0;
    static constexpr int kWrite = 1;
    static int
    dirOf(OpType op)
    {
        return op == OpType::kRead ? kRead : kWrite;
    }

    /** Admission time of a request plus the chain node whose bucket
     *  sets it (kNoGroup when the request may pass now). */
    struct Admission
    {
        SimTime when;
        cgroup::CgroupId blocker;
    };

    struct CgState
    {
        const cgroup::Cgroup *cg = nullptr;
        Bucket rbps;
        Bucket wbps;
        Bucket riops;
        Bucket wiops;
        /** io.max limits cached against the tree version: per-request
         *  chain walks do one version compare instead of a map find. */
        cgroup::IoMaxLimits limits;
        uint64_t limits_version = 0;
        /** Subtree-wide consumption (self + descendants), for the
         *  hierarchical conservation checks. */
        uint64_t consumed_bytes = 0;
        common::RingDeque<QEnt> queue;
        /** Stamped at creation; timers carry it so one that outlives
         *  its group never acts on a later group reusing the id. */
        uint32_t gen = 0;
        /** Next group in the waiter ring this group is parked in. */
        cgroup::CgroupId next_waiter = kNoGroup;
        /** Per direction, the last group parked in this node's waiter
         *  ring; the ring is circular, so its `next_waiter` is the
         *  first. */
        cgroup::CgroupId waiter_tail[2] = {kNoGroup, kNoGroup};
        bool limited = false;
        /** The queue is non-empty and its head waits: on this group's
         *  own timer or parked in an ancestor's ring. */
        bool waiting = false;
        /** This node's dispatch timer per direction is pending or
         *  serving. */
        bool armed[2] = {false, false};
    };

    void onCgroupRemoved(cgroup::Cgroup &cg) override;

    /** Refresh the cached limits when the tree changed. */
    const cgroup::IoMaxLimits &limitsOf(CgState &st);

    /**
     * Earliest time an (op, size) request from `cg` may pass given the
     * buckets of the whole ancestor chain (== now when it may pass
     * immediately), and the node that sets it (the one nearest `cg` on
     * a tie). Does not consume credit.
     */
    Admission admissionTime(const cgroup::Cgroup *cg, OpType op,
                            uint32_t size);

    /** Consume credit along the whole chain for an admitted request. */
    void consume(const cgroup::Cgroup *cg, OpType op, uint32_t size);

    /** Advance one state's applicable buckets. */
    void advanceBuckets(CgState &st, OpType op, uint32_t size);

    /**
     * Make a waiting group wait for `adm`: on its own timer when it is
     * its own blocker, else parked in the blocking node's waiter ring
     * for direction `dir`, arming that node's timer unless it is
     * already armed. Does not walk the chain again.
     */
    void wait(CgState &st, const Admission &adm, int dir);

    /** Admit a waiting group's head requests while they may pass, then
     *  make it wait for the first that may not. */
    void release(cgroup::CgroupId id);

    /** A group's own dispatch timer fired. */
    void drain(cgroup::CgroupId id, uint32_t gen);

    /** A limited node's dispatch timer for direction `dir` fired: serve
     *  its waiters round-robin until its credit runs out. */
    void dispatch(cgroup::CgroupId id, uint32_t gen, int dir);

    /** Unlink the head of `node`'s waiter ring for `dir`. */
    void unlinkHead(CgState &node, int dir);

    /** Credit horizon (kernel throtl_slice for SSDs is ~20 ms). */
    static constexpr SimTime kSlice = msToNs(20);

    CgStateArena<CgState> states_;
    uint32_t generations_ = 0;
    bool debug_corrupt_bucket_ = false;
    uint64_t debug_consumes_ = 0;
};

} // namespace isol::blk

#endif // ISOL_BLK_QOS_MAX_HH
