/**
 * @file
 * The benchmark's named workloads: each is a list of simulator scenarios
 * plus the paper-shape checks that decide whether a scenario's simulated
 * outputs are correct. See README.md for why each workload exists.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isolbench/scenario.hh"

namespace hostbench
{

using isol::isolbench::Scenario;
using isol::isolbench::ScenarioConfig;

/** Simulated outputs of one scenario that feed the digest. */
struct Outputs
{
    double agg_gibs = 0.0;
    double lc_p99_us = 0.0; //!< 0 when the scenario has no LC tenant
    double jain = 0.0; //!< 0 when the scenario is not a fairness run
};

/** One scenario of a workload. */
struct ScenarioDef
{
    std::string name;
    ScenarioConfig cfg;

    /** Adds the tenants and writes the knob files: the cgroup tree. */
    std::function<void(Scenario &)> populate;

    /**
     * After run(): fills the outputs and appends one line per failed
     * paper-shape check.
     */
    std::function<void(Scenario &, Outputs &, std::vector<std::string> &)>
        inspect;
};

/** Names accepted by workloadScenarios(), in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Scenarios of workload `name` with inputs derived from `seed`; empty
 * when the name is unknown. Heaviest scenarios come first so a worker
 * pool finishes them in a steady order.
 */
std::vector<ScenarioDef> workloadScenarios(const std::string &name,
                                           uint64_t seed);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
