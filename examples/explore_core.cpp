/**
 * @file
 * Customizing a core for a workload with the XpScalar-style
 * simulated-annealing explorer (the paper's Section 5.1
 * methodology): the objective is the workload's IPT under the
 * technology model that ties clock period to structure sizes.
 *
 * Build & run:
 *   ./build/examples/explore_core [benchmark] [steps]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "contest/system.hh"
#include "explore/annealer.hh"
#include "trace/generator.hh"

int
main(int argc, char **argv)
{
    using namespace contest;

    std::string bench = argc > 1 ? argv[1] : "twolf";
    std::uint64_t steps =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 60;

    // A short trace keeps each objective evaluation cheap; the
    // walk simulates one per step.
    TracePtr trace = makeBenchmarkTrace(bench, 2009, 25'000);

    std::uint64_t simulated = 0;
    auto objective = [&](const CoreConfig &candidate) {
        ++simulated;
        return runSingle(candidate, trace).ipt;
    };

    CoreConfig start;
    start.name = bench + "-custom";
    applyTechnologyModel(start);
    double start_ipt = runSingle(start, trace).ipt;
    std::printf("exploring a core for '%s' (%llu annealing steps)\n",
                bench.c_str(),
                static_cast<unsigned long long>(steps));
    std::printf("start: width %u, ROB %u, IQ %u, %.2f GHz -> "
                "%.3f inst/ns\n",
                start.width, start.robSize, start.iqSize,
                start.frequencyGHz(), start_ipt);

    AnnealConfig ac;
    ac.steps = StepCount{steps};
    ac.seed = 7;
    auto result = annealCoreConfig(objective, start, ac);

    const CoreConfig &best = result.best;
    std::printf("best:  width %u, ROB %u, IQ %u, LSQ %u, "
                "fe %u, sched %llu, wakeup %llu, %.2f GHz\n",
                best.width, best.robSize, best.iqSize, best.lsqSize,
                best.frontEndDepth,
                static_cast<unsigned long long>(best.schedDepth),
                static_cast<unsigned long long>(best.wakeupLatency),
                best.frequencyGHz());
    std::printf("       L1D %lluKB (%u-way, %uB blocks, %llu cyc), "
                "L2 %lluKB (%llu cyc)\n",
                static_cast<unsigned long long>(
                    best.l1d.capacityBytes() / 1024),
                best.l1d.assoc, best.l1d.blockBytes,
                static_cast<unsigned long long>(best.l1d.latency),
                static_cast<unsigned long long>(
                    best.l2.capacityBytes() / 1024),
                static_cast<unsigned long long>(best.l2.latency));
    // A round proposes several candidates but simulates only up to
    // its first acceptance, so the walk proposes more than it runs.
    std::printf("       %.3f inst/ns (%+.1f%% over the start point; "
                "%llu proposed, %llu simulated, %llu accepted)\n",
                result.bestScore,
                (result.bestScore / start_ipt - 1.0) * 100.0,
                static_cast<unsigned long long>(result.evaluations),
                static_cast<unsigned long long>(simulated),
                static_cast<unsigned long long>(result.accepted));
    return 0;
}
