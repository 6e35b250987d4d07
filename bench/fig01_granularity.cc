/**
 * @file
 * Figure 1 — the Section 2 limit study. For every benchmark, the
 * execution is logged in 20-instruction regions on every customized
 * core; for each pair of configurations an oracle retires each
 * granularity-sized block on whichever configuration was faster.
 * The figure reports the best pair's speedup over the benchmark's
 * own customized core at each switching granularity.
 */

#include "bench/bench_common.hh"

#include <algorithm>

#include "harness/migration.hh"

namespace contest
{
namespace
{

void
runFig01(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;
    const auto &palette = appendixAPalette();

    // Granularities in instructions (regions are 20 instructions).
    std::vector<std::uint64_t> grans{20,   80,    320,   1280,
                                     5120, 20480, 81920};
    if (runner.settings().fast)
        grans = {20, 1280, 81920};
    std::uint64_t whole = runner.settings().traceLen;
    grans.push_back(whole);

    std::vector<std::string> head{"bench"};
    for (auto g : grans)
        head.push_back(g == whole ? "whole" : std::to_string(g));
    head.push_back("best pair @20");

    auto &t = art.table("Figure 1: % speedup of oracle "
                        "pair-switching over the benchmark's own "
                        "customized core");
    t.columns = head;

    std::vector<double> avg_speedup(grans.size(), 0.0);
    for (const auto &bench : profileNames()) {
        TimePs own_total =
            runner.single(bench, bench).regions->total();

        std::vector<ArtifactCell> cells{cellText(bench)};
        std::string finest_pair;
        for (std::size_t gi = 0; gi < grans.size(); ++gi) {
            std::uint64_t regions_per_block = std::max<std::uint64_t>(
                1, grans[gi] / RegionLog::regionInsts);
            double best = 0.0;
            std::string best_pair;
            for (std::size_t a = 0; a < palette.size(); ++a) {
                const auto &ra = runner.single(bench,
                                               palette[a].name);
                for (std::size_t b = a + 1; b < palette.size();
                     ++b) {
                    const auto &rb = runner.single(bench,
                                                   palette[b].name);
                    TimePs fused =
                        simulateMigration(ra.regions->series(),
                                          rb.regions->series(),
                                          {regions_per_block, TimePs{},
                                           MigrationPolicy::Oracle})
                            .totalPs;
                    double sp = static_cast<double>(own_total)
                            / static_cast<double>(fused)
                        - 1.0;
                    if (sp > best) {
                        best = sp;
                        best_pair = palette[a].name + std::string("+")
                            + palette[b].name;
                    }
                }
            }
            cells.push_back(cellPct(best));
            if (gi == 0)
                finest_pair = best_pair.empty() ? "-" : best_pair;
            avg_speedup[gi] += best;
        }
        cells.push_back(cellText(finest_pair));
        t.row(std::move(cells));
    }

    std::vector<ArtifactCell> avg_row{cellText("AVERAGE")};
    std::size_t n = profileNames().size();
    for (std::size_t gi = 0; gi < grans.size(); ++gi)
        avg_row.push_back(
            cellPct(avg_speedup[gi] / static_cast<double>(n)));
    avg_row.push_back(cellText(""));
    t.row(std::move(avg_row));

    art.scalar("avg_speedup_finest",
               avg_speedup.front() / static_cast<double>(n));
    art.scalar("avg_speedup_whole",
               avg_speedup.back() / static_cast<double>(n));
    art.note("Paper: up to ~25% below 1k-instruction granularity, "
             "~5% near 1280, ~0% at whole-SimPoint granularity; "
             "knee near 1280 instructions.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("fig01", "Figure 1: oracle switching granularity",
                    runFig01);

} // namespace
} // namespace contest
