/**
 * @file
 * Ablation E — N-way contesting. Section 4 describes contesting for
 * N cores; the paper evaluates N=2. This ablation adds the third
 * and fourth most suitable core types to each benchmark's best pair
 * and measures whether the extra contestants pay for themselves.
 */

#include "bench/bench_common.hh"

#include <algorithm>

namespace contest
{
namespace
{

void
runAblation(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;
    const auto &m = runner.matrix();

    auto &t = art.table("Ablation E: contested IPT for 2-, 3- and "
                        "4-way contesting (adding the next-best "
                        "core types)");
    t.columns = {"bench", "2-way pair", "2-way", "3-way", "4-way",
                 "3rd/4th cores"};

    std::vector<double> gain3;
    std::vector<double> gain4;
    for (const auto &bench : profileNames()) {
        auto choice = runner.bestContestingPair(bench, 3);

        // Rank the remaining core types by single-core IPT for this
        // benchmark and add the best ones.
        std::size_t b = m.benchIndex(bench);
        std::vector<std::size_t> rest;
        for (std::size_t c = 0; c < m.numCores(); ++c) {
            const auto &name = m.coreNames[c];
            if (name != choice.coreA && name != choice.coreB)
                rest.push_back(c);
        }
        std::sort(rest.begin(), rest.end(),
                  [&](std::size_t x, std::size_t y) {
                      return m.ipt[b][x] > m.ipt[b][y];
                  });
        const std::string third = m.coreNames[rest[0]];
        const std::string fourth = m.coreNames[rest[1]];

        auto three = runner.contested(
            bench,
            {coreConfigByName(choice.coreA),
             coreConfigByName(choice.coreB),
             coreConfigByName(third)},
            {});
        auto four = runner.contested(
            bench,
            {coreConfigByName(choice.coreA),
             coreConfigByName(choice.coreB),
             coreConfigByName(third), coreConfigByName(fourth)},
            {});

        gain3.push_back(speedup(three.ipt, choice.result.ipt));
        gain4.push_back(speedup(four.ipt, choice.result.ipt));
        t.row({cellText(bench),
               cellText(choice.coreA + "+" + choice.coreB),
               cellNum(choice.result.ipt), cellNum(three.ipt),
               cellNum(four.ipt), cellText(third + "/" + fourth)});
    }

    art.scalar("avg_gain_3way", arithmeticMean(gain3));
    art.scalar("avg_gain_4way", arithmeticMean(gain4));
    art.note("Adding a third core: avg "
             + TextTable::pct(arithmeticMean(gain3)) + "; a fourth: "
             + "avg " + TextTable::pct(arithmeticMean(gain4))
             + " over 2-way. The paper's cost-effectiveness claim "
               "(Fig. 13) predicts rapidly diminishing returns "
               "beyond two contestants.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("abl_nway", "Ablation E: N-way contesting",
                    runAblation);

} // namespace
} // namespace contest
