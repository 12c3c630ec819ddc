#include "cgroup/cgroup.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/strings.hh"

namespace isol::cgroup
{

std::string
Cgroup::path() const
{
    if (isRoot())
        return "/";
    std::string p = parent_->path();
    if (p.back() != '/')
        p += '/';
    return p + name_;
}

IoMaxLimits
Cgroup::ioMax(DeviceId dev) const
{
    auto it = io_max_.find(dev);
    return it == io_max_.end() ? IoMaxLimits{} : it->second;
}

SimTime
Cgroup::ioLatencyTarget(DeviceId dev) const
{
    auto it = io_latency_.find(dev);
    return it == io_latency_.end() ? 0 : it->second.target;
}

CgroupTree::CgroupTree()
{
    groups_.push_back(std::unique_ptr<Cgroup>(
        new Cgroup(this, nullptr, "", 0)));
    root_ = groups_.back().get();
}

Cgroup &
CgroupTree::group(CgroupId id)
{
    Cgroup *g = groups_.at(id).get();
    if (g == nullptr)
        fatal("cgroup: id " + std::to_string(id) + " refers to a removed "
              "group");
    return *g;
}

const Cgroup &
CgroupTree::group(CgroupId id) const
{
    const Cgroup *g = groups_.at(id).get();
    if (g == nullptr)
        fatal("cgroup: id " + std::to_string(id) + " refers to a removed "
              "group");
    return *g;
}

Cgroup &
CgroupTree::createChild(Cgroup &parent, const std::string &name)
{
    if (name.empty() || name.find('/') != std::string::npos)
        fatal("cgroup: invalid group name '" + name + "'");
    for (Cgroup *sibling : parent.children_) {
        if (sibling->name() == name)
            fatal("cgroup: group '" + name + "' already exists");
    }
    // v2: a group with processes cannot gain child groups that would be
    // subject to resource control. (The kernel allows child creation but
    // refuses controller enablement; we enforce at enablement time.)
    CgroupId id;
    if (!free_ids_.empty()) {
        id = free_ids_.back();
        free_ids_.pop_back();
        groups_[id].reset(new Cgroup(this, &parent, name, id));
    } else {
        id = static_cast<CgroupId>(groups_.size());
        groups_.push_back(std::unique_ptr<Cgroup>(
            new Cgroup(this, &parent, name, id)));
    }
    Cgroup *child = groups_[id].get();
    parent.children_.push_back(child);
    ++live_groups_;
    bumpVersion();
    return *child;
}

void
CgroupTree::removeGroup(Cgroup &group)
{
    if (group.isRoot())
        fatal("cgroup: cannot remove the root group");
    if (!group.children_.empty()) {
        fatal("cgroup: cannot remove '" + group.path() +
              "': group has child groups");
    }
    if (group.processes_ > 0) {
        fatal("cgroup: cannot remove '" + group.path() +
              "': group holds processes");
    }
    // Gates drop their per-cgroup state while the group is still linked.
    for (const Listener &l : removal_listeners_)
        l.fn(group);
    Cgroup *parent = group.parent_;
    auto &siblings = parent->children_;
    siblings.erase(std::find(siblings.begin(), siblings.end(), &group));
    CgroupId id = group.id_;
    groups_[id].reset();
    free_ids_.push_back(id);
    --live_groups_;
    bumpVersion();
}

RemovalSubscription
CgroupTree::subscribeRemoval(RemovalListener fn)
{
    size_t token = next_listener_token_++;
    removal_listeners_.push_back({token, std::move(fn)});
    return RemovalSubscription(this, token);
}

void
CgroupTree::removeRemovalListener(size_t token)
{
    for (auto it = removal_listeners_.begin();
         it != removal_listeners_.end(); ++it) {
        if (it->token == token) {
            removal_listeners_.erase(it);
            return;
        }
    }
}

void
RemovalSubscription::reset()
{
    if (tree_ != nullptr)
        std::exchange(tree_, nullptr)->removeRemovalListener(token_);
}

Cgroup *
CgroupTree::resolve(const std::string &path)
{
    Cgroup *node = root_;
    size_t pos = 0;
    while (pos < path.size()) {
        size_t slash = path.find('/', pos);
        size_t end = slash == std::string::npos ? path.size() : slash;
        if (end > pos) {
            std::string component = path.substr(pos, end - pos);
            Cgroup *next = nullptr;
            for (Cgroup *child : node->children_) {
                if (child->name() == component) {
                    next = child;
                    break;
                }
            }
            if (next == nullptr)
                return nullptr;
            node = next;
        }
        pos = end + 1;
    }
    return node;
}

void
CgroupTree::enableIoController(Cgroup &group)
{
    if (group.processes_ > 0) {
        fatal("cgroup: cannot enable controllers on '" + group.path() +
              "': group holds processes (no internal processes rule)");
    }
    group.io_enabled_ = true;
    bumpVersion();
}

void
CgroupTree::attachProcess(Cgroup &group)
{
    if (group.io_enabled_) {
        fatal("cgroup: cannot attach process to management group '" +
              group.path() + "'");
    }
    ++group.processes_;
    for (Cgroup *node = &group; node != nullptr; node = node->parent_)
        ++node->subtree_processes_;
    bumpVersion();
}

void
CgroupTree::detachProcess(Cgroup &group)
{
    if (group.processes_ == 0)
        fatal("cgroup: no process to detach from '" + group.path() + "'");
    --group.processes_;
    for (Cgroup *node = &group; node != nullptr; node = node->parent_)
        --node->subtree_processes_;
    bumpVersion();
}

void
CgroupTree::validateKnobWrite(Cgroup &group, const std::string &file) const
{
    if (file == "io.cost.model" || file == "io.cost.qos") {
        if (!group.isRoot())
            fatal("cgroup: " + file + " can only be set on the root group");
        return;
    }
    if (file == "io.prio.class") {
        // Not inheritable: only meaningful on process groups.
        if (group.io_enabled_) {
            fatal("cgroup: io.prio.class has no effect on management "
                  "group '" + group.path() + "'");
        }
        return;
    }
    // Remaining knobs need the parent to delegate the io controller.
    if (group.isRoot())
        fatal("cgroup: " + file + " cannot be set on the root group");
    if (!group.parent()->ioControllerEnabled()) {
        fatal("cgroup: parent of '" + group.path() +
              "' does not enable the io controller (+io)");
    }
}

namespace
{

/** Split "<dev> rest..." and parse the leading device id. */
bool
splitDevicePrefix(const std::string &value, DeviceId &dev, std::string &rest)
{
    std::string trimmed = trimString(value);
    size_t space = trimmed.find(' ');
    std::string dev_str =
        space == std::string::npos ? trimmed : trimmed.substr(0, space);
    rest = space == std::string::npos ? "" : trimmed.substr(space + 1);
    // Accept both "259:0" (maj:min) and a bare index.
    size_t colon = dev_str.find(':');
    if (colon != std::string::npos)
        dev_str = dev_str.substr(colon + 1);
    auto parsed = parseUint(dev_str);
    if (!parsed)
        return false;
    dev = static_cast<DeviceId>(*parsed);
    return true;
}

} // namespace

void
CgroupTree::writeFile(Cgroup &group, const std::string &file,
                      const std::string &value)
{
    if (file == "cgroup.subtree_control") {
        for (const std::string &token : splitWhitespace(value)) {
            if (token == "+io") {
                enableIoController(group);
            } else if (token == "-io") {
                group.io_enabled_ = false;
                bumpVersion();
            } else {
                fatal("cgroup: unsupported controller token '" + token + "'");
            }
        }
        return;
    }

    validateKnobWrite(group, file);
    // Every successful knob write below changes enforcement inputs;
    // gates cache against version(), so bump up front.
    bumpVersion();

    if (file == "io.weight") {
        auto w = parseWeight(value, 1, 10000);
        if (!w)
            fatal("cgroup: invalid io.weight '" + value + "'");
        group.io_weight_ = *w;
        return;
    }
    if (file == "io.bfq.weight") {
        auto w = parseWeight(value, 1, 1000);
        if (!w)
            fatal("cgroup: invalid io.bfq.weight '" + value + "'");
        group.bfq_weight_ = *w;
        return;
    }
    if (file == "io.prio.class") {
        auto cls = parsePrioClass(value);
        if (!cls)
            fatal("cgroup: invalid io.prio.class '" + value + "'");
        group.prio_class_ = *cls;
        return;
    }

    DeviceId dev = 0;
    std::string rest;
    if (!splitDevicePrefix(value, dev, rest))
        fatal("cgroup: " + file + " needs a leading device id: '" + value +
              "'");

    if (file == "io.max") {
        auto limits = parseIoMax(rest, group.ioMax(dev));
        if (!limits)
            fatal("cgroup: invalid io.max '" + value + "'");
        group.io_max_[dev] = *limits;
        return;
    }
    if (file == "io.latency") {
        auto cfg = parseIoLatency(rest);
        if (!cfg)
            fatal("cgroup: invalid io.latency '" + value + "'");
        group.io_latency_[dev] = *cfg;
        return;
    }
    if (file == "io.cost.model") {
        auto model = parseIoCostModel(rest, costModel(dev));
        if (!model)
            fatal("cgroup: invalid io.cost.model '" + value + "'");
        cost_models_[dev] = *model;
        return;
    }
    if (file == "io.cost.qos") {
        auto qos = parseIoCostQos(rest, costQos(dev));
        if (!qos)
            fatal("cgroup: invalid io.cost.qos '" + value + "'");
        cost_qos_[dev] = *qos;
        return;
    }
    fatal("cgroup: unknown file '" + file + "'");
}

std::string
CgroupTree::readFile(const Cgroup &group, const std::string &file) const
{
    std::ostringstream oss;
    if (file == "io.weight") {
        oss << "default " << group.ioWeight();
        return oss.str();
    }
    if (file == "io.bfq.weight") {
        oss << group.bfqWeight();
        return oss.str();
    }
    if (file == "io.prio.class")
        return prioClassName(group.prioClass());
    if (file == "cgroup.subtree_control")
        return group.ioControllerEnabled() ? "io" : "";
    if (file == "io.max") {
        bool first = true;
        for (const auto &[dev, lim] : group.io_max_) {
            if (!first)
                oss << '\n';
            first = false;
            auto field = [&](const char *key, uint64_t v) {
                oss << ' ' << key << '=';
                if (v == 0)
                    oss << "max";
                else
                    oss << v;
            };
            oss << "259:" << dev;
            field("rbps", lim.rbps);
            field("wbps", lim.wbps);
            field("riops", lim.riops);
            field("wiops", lim.wiops);
        }
        return oss.str();
    }
    if (file == "io.latency") {
        bool first = true;
        for (const auto &[dev, cfg] : group.io_latency_) {
            if (!first)
                oss << '\n';
            first = false;
            oss << "259:" << dev << " target="
                << cfg.target / 1000 << "us";
        }
        return oss.str();
    }
    if (file == "io.cost.model") {
        bool first = true;
        for (const auto &[dev, m] : cost_models_) {
            if (!first)
                oss << '\n';
            first = false;
            oss << "259:" << dev << " ctrl=" << (m.user ? "user" : "auto")
                << " model=linear rbps=" << m.rbps
                << " rseqiops=" << m.rseqiops
                << " rrandiops=" << m.rrandiops << " wbps=" << m.wbps
                << " wseqiops=" << m.wseqiops
                << " wrandiops=" << m.wrandiops;
        }
        return oss.str();
    }
    if (file == "io.cost.qos") {
        bool first = true;
        for (const auto &[dev, q] : cost_qos_) {
            if (!first)
                oss << '\n';
            first = false;
            oss << "259:" << dev << " enable=" << (q.enable ? 1 : 0)
                << " ctrl=user rpct=" << formatDouble(q.rpct, 2)
                << " rlat=" << q.rlat / 1000
                << " wpct=" << formatDouble(q.wpct, 2)
                << " wlat=" << q.wlat / 1000
                << " min=" << formatDouble(q.vrate_min, 2)
                << " max=" << formatDouble(q.vrate_max, 2);
        }
        return oss.str();
    }
    fatal("cgroup: unknown file '" + file + "'");
}

IoCostModel
CgroupTree::costModel(DeviceId dev) const
{
    auto it = cost_models_.find(dev);
    return it == cost_models_.end() ? IoCostModel{} : it->second;
}

IoCostQos
CgroupTree::costQos(DeviceId dev) const
{
    auto it = cost_qos_.find(dev);
    return it == cost_qos_.end() ? IoCostQos{} : it->second;
}

void
CgroupTree::setCostModel(DeviceId dev, const IoCostModel &model)
{
    cost_models_[dev] = model;
    bumpVersion();
}

void
CgroupTree::setCostQos(DeviceId dev, const IoCostQos &qos)
{
    if (qos.vrate_min > qos.vrate_max)
        fatal("cgroup: io.cost.qos min > max");
    cost_qos_[dev] = qos;
    bumpVersion();
}

double
CgroupTree::hierarchicalShare(const Cgroup &group, bool bfq) const
{
    double share = 1.0;
    const Cgroup *node = &group;
    while (!node->isRoot()) {
        const Cgroup *parent = node->parent();
        uint64_t sibling_sum = 0;
        for (const Cgroup *sibling : parent->children()) {
            if (!subtreeActive(*sibling))
                continue;
            sibling_sum += bfq ? sibling->bfqWeight() : sibling->ioWeight();
        }
        uint64_t own = bfq ? node->bfqWeight() : node->ioWeight();
        if (sibling_sum == 0)
            sibling_sum = own; // group alone (inactive): full share
        share *= static_cast<double>(own) /
                 static_cast<double>(sibling_sum);
        node = parent;
    }
    return share;
}

} // namespace isol::cgroup
