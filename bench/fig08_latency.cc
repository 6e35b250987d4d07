/**
 * @file
 * Figure 8 — the effect of core-to-core (GRB) latency on the
 * speedup of contesting the best pair over the benchmark's own
 * customized core, swept from the paper's 1 ns baseline to 100 ns.
 */

#include "bench/bench_common.hh"

namespace contest
{
namespace
{

void
runFig08(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    std::vector<TimePs> latencies{TimePs{1'000}, TimePs{2'000},
                                  TimePs{5'000}, TimePs{10'000},
                                  TimePs{100'000}};
    if (runner.settings().fast)
        latencies = {TimePs{1'000}, TimePs{10'000}, TimePs{100'000}};

    std::vector<std::string> head{"bench", "pair"};
    for (TimePs l : latencies)
        head.push_back(std::to_string(l.count() / 1000) + "ns");

    auto &t = art.table("Figure 8: contesting speedup over the own "
                        "customized core at different GRB latencies");
    t.columns = head;

    unsigned top = runner.settings().fast ? 2 : 5;
    std::vector<double> avg(latencies.size(), 0.0);
    auto names = profileNames();
    for (const auto &bench : names) {
        double own = runner.single(bench, bench).result.ipt;
        auto choice = runner.bestContestingPair(bench, {}, top);

        std::vector<ArtifactCell> cells{
            cellText(bench),
            cellText(choice.coreA + "+" + choice.coreB)};
        for (std::size_t li = 0; li < latencies.size(); ++li) {
            ContestConfig cfg;
            cfg.grbLatencyPs = latencies[li];
            double ipt = latencies[li] == 1'000
                ? choice.result.ipt
                : runner
                      .contestedPair(bench, choice.coreA,
                                     choice.coreB, cfg)
                      .ipt;
            double sp = speedup(ipt, own);
            avg[li] += sp;
            cells.push_back(cellPct(sp));
        }
        t.row(std::move(cells));
    }

    std::vector<ArtifactCell> avg_row{cellText("AVERAGE"),
                                      cellText("")};
    for (std::size_t li = 0; li < latencies.size(); ++li)
        avg_row.push_back(cellPct(
            avg[li] / static_cast<double>(names.size())));
    t.row(std::move(avg_row));

    art.scalar("avg_speedup_baseline",
               avg.front() / static_cast<double>(names.size()));
    art.scalar("avg_speedup_slowest",
               avg.back() / static_cast<double>(names.size()));
    art.note("Paper: the average benefit decreases with latency, "
             "down to ~6% at 100 ns; sensitivity differs strongly "
             "per benchmark (bzip <1% loss from 1 ns to 2 ns, gzip "
             ">35%).");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("fig08", "Figure 8: core-to-core latency sweep",
                    runFig08);

} // namespace
} // namespace contest
