/**
 * @file
 * Ablation B — the Figure 5 corner case: resolving a mispredicted
 * branch early from a received retired instance, which flips the
 * core from Scenario #1 into Scenario #2. Disabling it forces every
 * mispredicted branch to resolve through the core's own pipeline.
 */

#include "bench/bench_common.hh"

namespace contest
{
namespace
{

void
runAblation(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    auto &t = art.table("Ablation B: contested IPT with and without "
                        "early branch resolution");
    t.columns = {"bench", "pair", "enabled", "disabled", "benefit",
                 "early resolves"};

    std::vector<double> benefits;
    for (const auto &bench : profileNames()) {
        auto choice = runner.bestContestingPair(bench, 3);

        ContestConfig off;
        off.earlyBranchResolve = false;
        auto no_early = runner.contestedPair(bench, choice.coreA,
                                             choice.coreB, off);
        double benefit = speedup(choice.result.ipt, no_early.ipt);
        benefits.push_back(benefit);
        std::uint64_t resolves =
            choice.result.coreStats[0].earlyResolves
            + choice.result.coreStats[1].earlyResolves;
        t.row({cellText(bench),
               cellText(choice.coreA + "+" + choice.coreB),
               cellNum(choice.result.ipt), cellNum(no_early.ipt),
               cellPct(benefit), cellCount(resolves)});
    }

    art.scalar("avg_benefit", arithmeticMean(benefits));
    art.note("Early resolution benefit: avg "
             + TextTable::pct(arithmeticMean(benefits))
             + ". The mechanism matters most for branchy workloads "
               "where the trailing core's retired outcomes arrive "
               "before the leader resolves its own mispredictions.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("abl_early_branch",
                    "Ablation B: early branch resolution",
                    runAblation);

} // namespace
} // namespace contest
