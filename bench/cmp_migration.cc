/**
 * @file
 * Contesting vs migrational approaches — the quantitative backing
 * for the paper's Section 2/3 argument that previously proposed
 * migrational techniques are too sluggish. For each benchmark the
 * best pair of cores is evaluated three ways: oracle migration at
 * several decision granularities and migration costs, realistic
 * history-based migration, and actual contesting.
 */

#include "bench/bench_common.hh"

#include "harness/migration.hh"

namespace contest
{
namespace
{

void
runCmpMigration(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    struct Scheme
    {
        const char *label;
        MigrationConfig cfg;
    };
    std::vector<Scheme> schemes{
        // A free oracle at 1280 instructions: the best any
        // positional/temporal scheme could hope for.
        {"oracle@1.3k/free",
         {64, TimePs{}, MigrationPolicy::Oracle}},
        // The same oracle paying a 5us thread migration.
        {"oracle@1.3k/5us",
         {64, TimePs{5'000'000}, MigrationPolicy::Oracle}},
        // OS-quantum-grained oracle with the same cost.
        {"oracle@100k/5us",
         {5120, TimePs{5'000'000}, MigrationPolicy::Oracle}},
        // Realistic: last-phase predictor at 10k instructions.
        {"history@10k/5us",
         {512, TimePs{5'000'000}, MigrationPolicy::History}},
    };
    if (runner.settings().fast)
        schemes.resize(2);

    auto &t = art.table("Contesting vs migration: speedup over the "
                        "benchmark's own customized core");
    t.columns = {"bench", "pair"};
    for (const auto &s : schemes)
        t.columns.push_back(s.label);
    t.columns.push_back("contesting");

    std::vector<double> avg(schemes.size() + 1, 0.0);
    unsigned top = runner.settings().fast ? 2 : 5;
    auto names = profileNames();
    for (const auto &bench : names) {
        const auto &own = runner.single(bench, bench);
        auto choice = runner.bestContestingPair(bench, {}, top);
        const auto &ra = runner.single(bench, choice.coreA);
        const auto &rb = runner.single(bench, choice.coreB);

        std::vector<ArtifactCell> cells{
            cellText(bench),
            cellText(choice.coreA + "+" + choice.coreB)};
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            auto m = simulateMigration(ra.regions->series(),
                                       rb.regions->series(),
                                       schemes[si].cfg);
            double sp = static_cast<double>(own.regions->total())
                    / static_cast<double>(m.totalPs)
                - 1.0;
            avg[si] += sp;
            cells.push_back(cellPct(sp));
        }
        double contest_sp = speedup(choice.result.ipt,
                                    own.result.ipt);
        avg.back() += contest_sp;
        cells.push_back(cellPct(contest_sp));
        t.row(cells);
    }

    std::vector<ArtifactCell> avg_row{cellText("AVERAGE"),
                                      cellText("")};
    for (double a : avg)
        avg_row.push_back(
            cellPct(a / static_cast<double>(names.size())));
    t.row(avg_row);

    art.scalar("avg_contest_speedup",
               avg.back() / static_cast<double>(names.size()));
    art.scalar("avg_best_oracle_speedup",
               avg.front() / static_cast<double>(names.size()));
    art.note("Contesting needs no phase detector, no decision policy "
             "and no migration cost: it reaches the fine-grain "
             "regime that even a free 1.3k-instruction oracle only "
             "approximates, while costed and history-based migration "
             "surrender most of the benefit (the paper's Section 2/3 "
             "argument).");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("cmp_migration",
                    "Contesting vs migrational baselines",
                    runCmpMigration);

} // namespace
} // namespace contest
