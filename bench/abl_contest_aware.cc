/**
 * @file
 * Ablation G — customizing cores *for contesting* (paper Section
 * 7.2). Application-customized cores are not necessarily the best
 * contesting partners; the true potential appears when the partner
 * is explored with contesting in the objective. For a few
 * benchmarks, a partner core is annealed to maximize the contested
 * IPT alongside the benchmark's own customized core, and compared
 * with the best palette pair.
 */

#include "bench/bench_common.hh"

#include <algorithm>

#include "explore/annealer.hh"

namespace contest
{
namespace
{

void
runAblation(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    // Contest-aware exploration simulates a contested pair per
    // objective evaluation, so use shorter traces and a small
    // annealing budget (the paper's Section 7.2 notes exactly this
    // cost explosion).
    std::uint64_t explore_len =
        std::min<std::uint64_t>(runner.settings().traceLen, 60'000);
    std::uint64_t steps = runner.settings().fast ? 15 : 40;
    std::vector<std::string> benches{"gcc", "twolf", "bzip"};

    auto &t = art.table("Ablation G: best palette pair vs a partner "
                        "core annealed with contesting in the "
                        "objective");
    t.columns = {"bench", "own core", "best palette pair",
                 "annealed partner", "evals"};

    // One row per benchmark, computed concurrently. A row depends
    // only on its benchmark (the walk only on its seed),
    // and runParallel returns the rows in benchmark order, so the
    // artifact is the same at every job count.
    struct Row
    {
        double own = 0.0;
        double bestPair = 0.0;
        std::string bestPartner;
        AnnealResult annealed;
    };
    auto rows = runner.runParallel(benches.size(), [&](std::size_t b) {
        const std::string &bench = benches[b];
        const auto &own = coreConfigByName(bench);
        Row row;
        row.own = runner.single(bench, own, explore_len).result.ipt;

        // Best palette partner for the own core, contested: the first
        // maximum in palette order. Routed through the runner so the
        // short-trace contests memoize and persist like every other
        // contested run.
        std::vector<const CoreConfig *> partners;
        for (const auto &cand : appendixAPalette())
            if (cand.name != bench)
                partners.push_back(&cand);
        auto pair_ipts =
            runner.runParallel(partners.size(), [&](std::size_t p) {
                return runner
                    .contested(bench, {own, *partners[p]},
                               ContestConfig{}, explore_len)
                    .ipt;
            });
        std::size_t best = argmaxFirst(pair_ipts);
        row.bestPair = pair_ipts[best];
        row.bestPartner = partners[best]->name;

        // Anneal a partner with the contested IPT as objective.
        auto objective = [&](const CoreConfig &partner) {
            return runner
                .contested(bench, {own, partner}, ContestConfig{},
                           explore_len)
                .ipt;
        };
        AnnealConfig ac;
        ac.steps = StepCount{steps};
        ac.seed = 13;
        CoreConfig start = own;
        start.name = bench + "-partner";
        row.annealed = annealCoreConfig(objective, start, ac);
        return row;
    });

    std::vector<std::string> wins;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const Row &row = rows[b];
        t.row({cellText(benches[b]), cellNum(row.own),
               cellCustom(row.bestPair, TextTable::num(row.bestPair)
                                            + " (+" + row.bestPartner
                                            + ")"),
               cellNum(row.annealed.bestScore),
               cellCount(row.annealed.evaluations)});
        if (row.annealed.bestScore > row.bestPair)
            wins.push_back(benches[b]);
    }

    // Say what the rows show: how often the explored partner wins
    // within this step budget, and for which benchmarks.
    std::string note = "In " + std::to_string(steps)
        + " annealing steps, the partner explored with contesting in "
          "the objective beats the best palette partner for "
        + std::to_string(wins.size()) + " of "
        + std::to_string(benches.size()) + " benchmarks";
    for (std::size_t i = 0; i < wins.size(); ++i)
        note += (i == 0 ? ": " : ", ") + wins[i];
    art.note(note
             + ". Every step simulates a contest inside the "
               "exploration loop, the cost Section 7.2 describes.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("abl_contest_aware",
                    "Ablation G: contest-aware core exploration",
                    runAblation);

} // namespace
} // namespace contest
