/**
 * @file
 * Ablation C — synchronizing store queue depth (paper Section 4.2).
 * The queue bounds how many stores the leader may run ahead of the
 * laggers; shallow queues backpressure the leader, which matters
 * more as the GRB latency (and therefore the natural lagging
 * distance) grows.
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

    std::vector<std::size_t> depths{64, 256, 1024, 4096};
    std::vector<TimePs> latencies{TimePs{1'000}, TimePs{10'000}};
    if (runner.settings().fast) {
        depths = {64, 4096};
        latencies = {TimePs{10'000}};
    }

    // A representative benchmark subset keeps this ablation fast.
    std::vector<std::string> benches{"gcc", "twolf", "gzip",
                                     "parser", "vpr"};

    for (TimePs lat : latencies) {
        auto &t = art.table(
            "Ablation C: contested IPT vs store queue depth at "
            + std::to_string(lat.count() / 1000) + "ns GRB latency");
        t.columns = {"bench", "pair"};
        for (auto d : depths)
            t.columns.push_back("depth " + std::to_string(d));
        t.columns.push_back("leader stalls @min");

        for (const auto &bench : benches) {
            auto choice = runner.bestContestingPair(bench, 3);
            std::vector<ArtifactCell> cells{
                cellText(bench),
                cellText(choice.coreA + "+" + choice.coreB)};
            Cycles min_depth_stalls{};
            for (std::size_t di = 0; di < depths.size(); ++di) {
                ContestConfig cfg;
                cfg.grbLatencyPs = lat;
                cfg.storeQueueCapacity = depths[di];
                auto r = runner.contestedPair(bench, choice.coreA,
                                              choice.coreB, cfg);
                cells.push_back(cellNum(r.ipt));
                if (di == 0)
                    min_depth_stalls =
                        r.coreStats[0].storeQueueStalls
                        + r.coreStats[1].storeQueueStalls;
            }
            cells.push_back(cellCount(min_depth_stalls.count()));
            t.row(cells);
        }
    }

    art.note("Shallow queues bound the lagging distance through "
             "commit backpressure; with a generous queue the FIFO "
             "capacity and saturation detector take over that role.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("abl_store_queue", "Ablation C: store queue depth",
                    runAblation);

} // namespace
} // namespace contest
