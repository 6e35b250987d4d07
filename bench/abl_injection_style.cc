/**
 * @file
 * Ablation A — result-injection style (paper Section 4.1.3): the
 * primary port-stealing scheme (injected results complete at rename
 * and bypass the issue queue) versus the "more straightforward
 * alternative" that dispatches injected instructions into the issue
 * queue marked immediately ready.
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

    auto &t = art.table("Ablation A: contested IPT with "
                        "port-stealing vs mark-ready injection");
    t.columns = {"bench", "pair", "port-steal", "mark-ready",
                 "delta"};

    std::vector<double> deltas;
    for (const auto &bench : profileNames()) {
        auto choice = runner.bestContestingPair(bench, 3);

        ContestConfig mark;
        mark.injectionStyle = InjectionStyle::MarkReady;
        auto mr = runner.contestedPair(bench, choice.coreA,
                                       choice.coreB, mark);
        double delta = speedup(choice.result.ipt, mr.ipt);
        deltas.push_back(delta);
        t.row({cellText(bench),
               cellText(choice.coreA + "+" + choice.coreB),
               cellNum(choice.result.ipt), cellNum(mr.ipt),
               cellPct(delta)});
    }

    art.scalar("avg_port_steal_delta", arithmeticMean(deltas));
    art.note("Port stealing over mark-ready: avg "
             + TextTable::pct(arithmeticMean(deltas))
             + ". Injected results that bypass the issue queue free "
               "issue slots and queue capacity for the lagger's "
               "catch-up sprint.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("abl_injection_style", "Ablation A: injection style",
                    runAblation);

} // namespace
} // namespace contest
