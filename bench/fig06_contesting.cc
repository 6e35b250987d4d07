/**
 * @file
 * Figure 6 — 2-way contesting against the benchmark's own
 * customized core. For each benchmark the best pair of customized
 * cores is contested (candidate pairs ranked by the Figure 1 oracle
 * fusion, the top few actually simulated) at the paper's 1 ns
 * core-to-core latency.
 */

#include "bench/bench_common.hh"

#include <cstdio>

namespace contest
{
namespace
{

void
runFig06(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    auto &t = art.table("Figure 6: IPT of contesting between the "
                        "best two cores vs the benchmark's own "
                        "customized core");
    t.columns = {"bench", "own core", "contest", "pair", "speedup",
                 "lead A/B", "lead changes"};

    struct Row
    {
        double own = 0.0;
        Runner::PairChoice choice;
    };
    const auto benches = profileNames();
    unsigned top = runner.settings().fast ? 2 : 5;
    auto rows = runner.runParallel(benches.size(), [&](std::size_t i) {
        Row row;
        row.own = runner.single(benches[i], benches[i]).result.ipt;
        row.choice = runner.bestContestingPair(benches[i], {}, top);
        return row;
    });

    std::vector<double> speedups;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const Row &row = rows[i];
        double sp = speedup(row.choice.result.ipt, row.own);
        speedups.push_back(sp);
        char lead[32];
        std::snprintf(lead, sizeof(lead), "%.2f/%.2f",
                      row.choice.result.leadFraction[0],
                      row.choice.result.leadFraction[1]);
        t.row({cellText(benches[i]), cellNum(row.own),
               cellNum(row.choice.result.ipt),
               cellText(row.choice.coreA + "+" + row.choice.coreB),
               cellPct(sp), cellText(lead),
               cellCount(row.choice.result.leadChanges)});
    }

    std::size_t max_at = argmaxFirst(speedups);
    art.scalar("avg_speedup", arithmeticMean(speedups));
    art.scalar("max_speedup", speedups[max_at]);
    art.note("Average speedup "
             + TextTable::pct(arithmeticMean(speedups)) + ", maximum "
             + TextTable::pct(speedups[max_at]) + " ("
             + benches[max_at]
             + "). Paper: average +15%, maximum +25% (gcc); four of "
               "eleven benchmarks above +18%.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("fig06", "Figure 6: 2-way contesting vs own core",
                    runFig06);

} // namespace
} // namespace contest
