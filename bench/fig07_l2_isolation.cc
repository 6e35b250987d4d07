/**
 * @file
 * Figure 7 — isolating the contribution of L2-cache heterogeneity.
 * Each benchmark's best contesting pair (X, Y) is re-run with two
 * cores that differ only in their L2: core X against X-with-Y's-L2,
 * and Y against Y-with-X's-L2; the better of the two trials is the
 * "L2 heterogeneity only" bar, the original pair the full bar.
 */

#include "bench/bench_common.hh"

#include <algorithm>

namespace contest
{
namespace
{

/** Core @p base with the L2 (geometry and latency) of @p donor. */
CoreConfig
withL2Of(const CoreConfig &base, const CoreConfig &donor)
{
    CoreConfig c = base;
    c.l2 = donor.l2;
    c.name = base.name + "+" + donor.name + "L2";
    return c;
}

void
runFig07(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    auto &t = art.table("Figure 7: fraction of the contesting "
                        "speedup attributable to L2 heterogeneity "
                        "alone");
    t.columns = {"bench", "pair", "full speedup", "L2-only speedup",
                 "L2-only share"};

    unsigned top = runner.settings().fast ? 2 : 5;
    std::vector<double> shares;
    for (const auto &bench : profileNames()) {
        double own = runner.single(bench, bench).result.ipt;
        auto choice = runner.bestContestingPair(bench, {}, top);
        double full_sp = speedup(choice.result.ipt, own);

        const auto &core_x = coreConfigByName(choice.coreA);
        const auto &core_y = coreConfigByName(choice.coreB);
        auto trial_x = runner.contested(
            bench, {core_x, withL2Of(core_x, core_y)}, {});
        auto trial_y = runner.contested(
            bench, {core_y, withL2Of(core_y, core_x)}, {});
        double l2_ipt = std::max(trial_x.ipt, trial_y.ipt);
        double l2_sp = speedup(l2_ipt, own);

        double share = full_sp > 0.0
            ? std::clamp(l2_sp / full_sp, 0.0, 1.0)
            : 0.0;
        shares.push_back(share);
        t.row({cellText(bench),
               cellText(choice.coreA + "+" + choice.coreB),
               cellPct(full_sp), cellPct(l2_sp),
               cellCustom(share,
                          TextTable::num(share * 100.0, 0) + "%")});
    }

    art.scalar("mean_l2_only_share", arithmeticMean(shares));
    char summary[240];
    std::snprintf(
        summary, sizeof(summary),
        "Mean L2-only share %.0f%%. Paper: for most benchmarks only "
        "a minor portion of the enhancement comes from L2 "
        "heterogeneity alone (gcc and parser are the exceptions).",
        arithmeticMean(shares) * 100.0);
    art.note(summary);
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("fig07", "Figure 7: L2-heterogeneity isolation",
                    runFig07);

} // namespace
} // namespace contest
