/**
 * @file
 * Ablation F — the energy cost of contesting. The paper frames
 * contesting as an optional mode trading power for single-thread
 * performance; this ablation quantifies the trade: energy per
 * instruction and energy-delay product for the benchmark's own core
 * alone versus the best contested pair.
 */

#include "bench/bench_common.hh"

#include <cstdio>

#include "power/energy.hh"

namespace contest
{
namespace
{

void
runAblation(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    auto &t = art.table("Ablation F: energy per instruction (nJ) "
                        "and energy-delay product, single vs "
                        "contested");
    t.columns = {"bench", "pair", "speedup", "EPI single",
                 "EPI pair", "energy ratio", "ED ratio"};

    std::vector<double> e_ratios;
    std::vector<double> ed_ratios;
    unsigned top = runner.settings().fast ? 2 : 5;
    for (const auto &bench : profileNames()) {
        const auto &own = runner.single(bench, bench);
        auto choice = runner.bestContestingPair(bench, top);
        const auto &r = choice.result;

        double insts = static_cast<double>(runner.settings().traceLen);
        double epi_single = own.result.energy.totalNj() / insts;
        double epi_pair = r.totalEnergyNj() / insts;
        double e_ratio = epi_pair / epi_single;
        // Energy-delay product, normalized to the single-core run.
        double delay_ratio = static_cast<double>(r.timePs)
            / static_cast<double>(own.result.timePs);
        double ed_ratio = e_ratio * delay_ratio;
        e_ratios.push_back(e_ratio);
        ed_ratios.push_back(ed_ratio);

        t.row({cellText(bench),
               cellText(choice.coreA + "+" + choice.coreB),
               cellPct(speedup(r.ipt, own.result.ipt)),
               cellNum(epi_single, 2), cellNum(epi_pair, 2),
               cellCustom(e_ratio, TextTable::num(e_ratio, 2) + "x"),
               cellCustom(ed_ratio,
                          TextTable::num(ed_ratio, 2) + "x")});
    }

    art.scalar("avg_energy_ratio", arithmeticMean(e_ratios));
    art.scalar("avg_ed_ratio", arithmeticMean(ed_ratios));
    char summary[320];
    std::snprintf(
        summary, sizeof(summary),
        "Contesting costs %.1fx the energy (two active cores plus "
        "the GRB) for its single-thread speedup; energy-delay lands "
        "at %.1fx. This is the paper's point about employing "
        "contesting on a need-to-have basis: it is a mode, not a "
        "default.",
        arithmeticMean(e_ratios), arithmeticMean(ed_ratios));
    art.note(summary);
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("abl_energy",
                    "Ablation F: the energy cost of contesting",
                    runAblation);

} // namespace
} // namespace contest
