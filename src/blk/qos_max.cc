// isol: domain(blk)
#include "blk/qos_max.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/invariants.hh"

namespace isol::blk
{

IoMaxGate::IoMaxGate(sim::Simulator &sim, cgroup::DeviceId dev,
                     cgroup::CgroupTree &tree, PassFn pass)
    : QosStage(sim, dev, tree, std::move(pass), kCpuCost)
{
}

void
IoMaxGate::onCgroupRemoved(cgroup::Cgroup &cg)
{
    CgState *st = states_.find(&cg);
    if (st == nullptr)
        return;
    if (!st->queue.empty()) {
        fatal("io.max: cgroup '" + cg.path() + "' removed with " +
              std::to_string(st->queue.size()) + " queued I/Os");
    }
    if (st->waiter_tail[kRead] != kNoGroup ||
        st->waiter_tail[kWrite] != kNoGroup) {
        fatal("io.max: cgroup '" + cg.path() +
              "' removed with groups waiting on its limit");
    }
    states_.erase(&cg);
}

const cgroup::IoMaxLimits &
IoMaxGate::limitsOf(CgState &st)
{
    uint64_t version = tree_.version();
    if (st.limits_version != version) {
        st.limits_version = version;
        st.limits = st.cg->ioMax(dev_);
        st.limited = !st.limits.unlimited();
    }
    return st.limits;
}

namespace
{

/**
 * Time needed to earn `amount` units at `rate` units/s, in ns.
 */
SimTime
earnTime(uint64_t amount, uint64_t rate)
{
    return static_cast<SimTime>(static_cast<double>(amount) /
                                static_cast<double>(rate) * 1e9);
}

} // namespace

IoMaxGate::Admission
IoMaxGate::admissionTime(const cgroup::Cgroup *cg, OpType op,
                         uint32_t size)
{
    SimTime now = sim_.now();
    Admission adm{now, kNoGroup};
    if (cg == nullptr)
        return adm;
    (void)size;
    // O(depth) chain walk: the request must clear its own buckets and
    // those of every limited ancestor (an interior io.max is a shared
    // token bucket over the whole subtree).
    for (cgroup::CgroupId id : cg->chain()) {
        CgState &st = *states_.findId(id);
        ++bookkeeping_ops_;
        limitsOf(st);
        if (!st.limited)
            continue;
        auto consider = [&](const Bucket &bucket, uint64_t rate) {
            if (rate == 0)
                return;
            // Idle credit is capped: the bucket cannot be "owed" more
            // than one slice into the past.
            SimTime base = std::max(bucket.next_free, now - kSlice);
            if (base > adm.when)
                adm = Admission{base, id};
        };
        bool read = op == OpType::kRead;
        consider(read ? st.rbps : st.wbps,
                 read ? st.limits.rbps : st.limits.wbps);
        consider(read ? st.riops : st.wiops,
                 read ? st.limits.riops : st.limits.wiops);
    }
    return adm;
}

void
IoMaxGate::advanceBuckets(CgState &st, OpType op, uint32_t size)
{
    SimTime now = sim_.now();
    const cgroup::Cgroup *cg = st.cg;
    auto advance = [&](Bucket &bucket, const char *dim, uint64_t amount,
                       uint64_t rate) {
        if (rate == 0)
            return;
        if (inv_ != nullptr) {
            inv_->require(bucket.next_free >= 0,
                          "io.max bucket non-negativity",
                          strCat("cgroup '", cg->name(), "' ", dim,
                                 " bucket horizon at ", bucket.next_free,
                                 " ns"));
        }
        SimTime base = std::max(bucket.next_free, now - kSlice);
        bucket.next_free = base + earnTime(amount, rate);
        if (inv_ != nullptr) {
            inv_->checkMonotonicAt(
                bucket.inv_last, "io.max bucket monotonicity",
                strCat("cgroup '", cg->name(), "' ", dim, " bucket"),
                static_cast<double>(bucket.next_free));
        }
    };
    bool read = op == OpType::kRead;
    if (read) {
        advance(st.rbps, "rbps", size, st.limits.rbps);
        advance(st.riops, "riops", 1, st.limits.riops);
    } else {
        advance(st.wbps, "wbps", size, st.limits.wbps);
        advance(st.wiops, "wiops", 1, st.limits.wiops);
    }
}

void
IoMaxGate::consume(const cgroup::Cgroup *cg, OpType op, uint32_t size)
{
    if (cg == nullptr)
        return;
    // Charge the whole chain, self first: subtree consumption counters
    // accumulate at every level, so the hierarchical conservation check
    // (children never outspend the parent) holds by construction.
    uint64_t child_bytes = 0;
    bool have_child = false;
    for (cgroup::CgroupId id : cg->chain()) {
        CgState &st = *states_.findId(id);
        ++bookkeeping_ops_;
        limitsOf(st);
        if (st.limited)
            advanceBuckets(st, op, size);
        st.consumed_bytes += size;
        if (inv_ != nullptr && have_child) {
            // This node is the parent of the previous chain entry: a
            // child running ahead of its parent means a skipped level.
            inv_->checkHierarchy(
                "io.max hierarchical consumption",
                strCat("cgroup '", st.cg->name(), "'"),
                static_cast<double>(child_bytes),
                static_cast<double>(st.consumed_bytes));
        }
        child_bytes = st.consumed_bytes;
        have_child = true;
    }
    // Deliberate fault injection for the invariant checker's negative
    // tests: after a fixed consume count, tear the bandwidth bucket the
    // offending cgroup is actively draining, so its very next request
    // of the same kind walks into the corrupted state.
    if (debug_corrupt_bucket_ && ++debug_consumes_ == 64) {
        CgState &self = *states_.find(cg);
        (op == OpType::kRead ? self.rbps : self.wbps).next_free =
            -msToNs(100);
    }
}

void
IoMaxGate::submit(Request *req)
{
    if (req->cg == nullptr) {
        pass(req);
        return;
    }
    CgState &st = states_.ensureChain(
        req->cg, [this](CgState &fresh) { fresh.gen = ++generations_; });
    if (st.queue.empty()) {
        if (admissionTime(req->cg, req->op, req->size).when <= sim_.now()) {
            consume(req->cg, req->op, req->size);
            pass(req);
            return;
        }
    }
    st.queue.push_back(QEnt{req, req->op, req->size});
    ++throttled_;
    if (!st.waiting) {
        st.waiting = true;
        const QEnt &head = st.queue.front();
        wait(st, admissionTime(req->cg, head.op, head.size),
             dirOf(head.op));
    }
}

void
IoMaxGate::wait(CgState &st, const Admission &adm, int dir)
{
    cgroup::CgroupId self = st.cg->id();
    if (adm.blocker == kNoGroup || adm.blocker == self) {
        sim_.at(std::max(adm.when, sim_.now()),
                [this, self, gen = st.gen] { drain(self, gen); });
        return;
    }
    // Blocked by an ancestor: join the back of its ring and leave the
    // timing to the ancestor, so waking it costs one event for all its
    // waiters, not one per waiter.
    CgState &node = *states_.findId(adm.blocker);
    cgroup::CgroupId &tail = node.waiter_tail[dir];
    if (tail == kNoGroup) {
        st.next_waiter = self;
    } else {
        CgState &last = *states_.findId(tail);
        st.next_waiter = last.next_waiter;
        last.next_waiter = self;
    }
    tail = self;
    if (!node.armed[dir]) {
        node.armed[dir] = true;
        sim_.at(adm.when, [this, id = adm.blocker, gen = node.gen, dir] {
            dispatch(id, gen, dir);
        });
    }
}

void
IoMaxGate::unlinkHead(CgState &node, int dir)
{
    cgroup::CgroupId tail = node.waiter_tail[dir];
    CgState &last = *states_.findId(tail);
    cgroup::CgroupId first = last.next_waiter;
    CgState &head = *states_.findId(first);
    if (first == tail)
        node.waiter_tail[dir] = kNoGroup;
    else
        last.next_waiter = head.next_waiter;
    head.next_waiter = kNoGroup;
}

void
IoMaxGate::release(cgroup::CgroupId id)
{
    for (;;) {
        // Re-looked-up every turn: pass() may register new groups,
        // which moves arena records.
        CgState &st = *states_.findId(id);
        if (st.queue.empty()) {
            st.waiting = false;
            return;
        }
        const QEnt head = st.queue.front();
        Admission adm = admissionTime(st.cg, head.op, head.size);
        if (adm.when > sim_.now()) {
            wait(st, adm, dirOf(head.op));
            return;
        }
        consume(st.cg, head.op, head.size);
        st.queue.pop_front();
        --throttled_;
        pass(head.req);
    }
}

void
IoMaxGate::drain(cgroup::CgroupId id, uint32_t gen)
{
    CgState *st = states_.findId(id);
    if (st == nullptr || st->gen != gen)
        return; // the group was removed; the id may have been reused
    release(id);
}

void
IoMaxGate::dispatch(cgroup::CgroupId id, uint32_t gen, int dir)
{
    CgState *node = states_.findId(id);
    if (node == nullptr || node->gen != gen)
        return;
    // armed[dir] stays set while serving: a group that parks here
    // meanwhile joins the ring instead of arming a second timer.
    for (;;) {
        node = states_.findId(id);
        cgroup::CgroupId tail = node->waiter_tail[dir];
        if (tail == kNoGroup)
            break;
        cgroup::CgroupId first = states_.findId(tail)->next_waiter;
        CgState &st = *states_.findId(first);
        const QEnt head = st.queue.front();
        Admission adm = admissionTime(st.cg, head.op, head.size);
        if (adm.when > sim_.now()) {
            if (adm.blocker == id) {
                // Out of credit: every waiter in this ring needs it.
                sim_.at(adm.when,
                        [this, id, gen, dir] { dispatch(id, gen, dir); });
                return;
            }
            unlinkHead(*node, dir);
            wait(st, adm, dir);
            continue;
        }
        consume(st.cg, head.op, head.size);
        st.queue.pop_front();
        --throttled_;
        // One request per turn: a group whose next request goes the
        // same way moves to the back of the ring; any other leaves it.
        bool more = !st.queue.empty();
        bool stays = more && dirOf(st.queue.front().op) == dir;
        if (stays)
            node->waiter_tail[dir] = first;
        else
            unlinkHead(*node, dir);
        if (!more)
            st.waiting = false;
        pass(head.req);
        if (more && !stays)
            release(first);
    }
    node->armed[dir] = false;
}

uint64_t
IoMaxGate::consumedBytesOf(const cgroup::Cgroup *cg) const
{
    const CgState *st = states_.find(cg);
    return st == nullptr ? 0 : st->consumed_bytes;
}

void
IoMaxGate::finalChecks()
{
    if (inv_ == nullptr)
        return;
    states_.checkHierarchy(
        *inv_, "io.max hierarchical consumption", tree_.idCapacity(),
        [](const CgState &st) {
            return static_cast<double>(st.consumed_bytes);
        });
}

} // namespace isol::blk
