#include "sched/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace contest
{

SchedResult
simulateLoad(const IptMatrix &matrix, const CmpDesign &design,
             const SchedConfig &config)
{
    fatal_if(design.cores.empty(), "simulateLoad: empty design");
    fatal_if(config.totalCores < design.cores.size(),
             "simulateLoad: %u cores cannot host %zu core types",
             config.totalCores, design.cores.size());
    fatal_if(config.numJobs == 0, "simulateLoad: no jobs");

    // Build the core instances: divide the budget evenly over the
    // design's types, earlier types taking the remainder.
    struct CoreInstance
    {
        std::size_t typeColumn; //!< matrix column of the core type
        double freeAtNs = 0.0;
        double busyNs = 0.0;
    };
    std::vector<CoreInstance> cores;
    std::size_t num_types = design.cores.size();
    for (unsigned i = 0; i < config.totalCores; ++i)
        cores.push_back(CoreInstance{design.cores[i % num_types]});

    // Jobs queue at the earliest-free core of their preferred type.
    auto earliest_of_type = [&](std::size_t column) {
        CoreInstance *best = nullptr;
        for (auto &core : cores)
            if (core.typeColumn == column
                && (best == nullptr
                    || core.freeAtNs < best->freeAtNs))
                best = &core;
        panic_if(best == nullptr, "no core of the requested type");
        return best;
    };

    Rng rng(config.seed);
    std::vector<double> turnarounds;
    std::vector<double> services;
    turnarounds.reserve(config.numJobs);
    SchedResult result;
    result.jobsPerType.assign(matrix.numCores(), 0);

    double now = 0.0;
    double makespan = 0.0;
    for (std::uint64_t j = 0; j < config.numJobs; ++j) {
        // Poisson arrivals, uniform job types (the paper's
        // assumptions).
        now += -config.meanInterarrivalNs
            * std::log(1.0 - rng.uniform());
        std::size_t bench = rng.below(matrix.numBenches());

        CoreInstance *core =
            earliest_of_type(bestCoreFor(matrix, bench, design.cores));

        double service =
            config.jobInsts / matrix.ipt[bench][core->typeColumn];
        double start = std::max(now, core->freeAtNs);
        double end = start + service;
        core->freeAtNs = end;
        core->busyNs += service;
        makespan = std::max(makespan, end);

        turnarounds.push_back(end - now);
        services.push_back(service);
        ++result.jobsPerType[core->typeColumn];
    }

    double turn_sum = 0.0;
    double service_sum = 0.0;
    for (std::size_t i = 0; i < turnarounds.size(); ++i) {
        turn_sum += turnarounds[i];
        service_sum += services[i];
    }
    auto n = static_cast<double>(turnarounds.size());
    result.meanTurnaroundNs = turn_sum / n;
    result.meanServiceNs = service_sum / n;
    result.meanQueueNs =
        result.meanTurnaroundNs - result.meanServiceNs;

    std::sort(turnarounds.begin(), turnarounds.end());
    result.p95TurnaroundNs =
        turnarounds[static_cast<std::size_t>(0.95
                                             * (turnarounds.size()
                                                - 1))];

    for (const auto &core : cores)
        if (makespan > 0.0)
            result.maxUtilization = std::max(
                result.maxUtilization, core.busyNs / makespan);
    return result;
}

} // namespace contest
