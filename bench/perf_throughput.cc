/**
 * @file
 * Simulator throughput benchmark: wall-clock simulation rate
 * (simulated Mticks/s and committed instructions/s) for every
 * palette core type running alone, plus one representative 2-way
 * contest. Registered standalone (REGISTER_EXPERIMENT_STANDALONE):
 * its artifact embeds wall-clock measurements, so it can never be
 * bit-stable and must stay out of `--all` and the golden gate. CI's
 * perf-smoke job runs it by name and archives BENCH_throughput.json
 * for trend tracking.
 */

#include "bench/bench_common.hh"

#include <chrono>

#include "contest/system.hh"
#include "core/palette.hh"
#include "trace/generator.hh"

namespace contest
{
namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedSec(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

void
runThroughput(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;

    // One representative workload; the rate is a property of the
    // simulator, not of the benchmark mix.
    const std::string bench = "gcc";
    auto trace = makeBenchmarkTrace(bench, runner.workloadSeed(),
                                    runner.traceLen());

    auto &t = art.table("Simulator throughput on '" + bench + "' ("
                        + std::to_string(trace->size())
                        + " instructions)");
    t.columns = {"core", "wall s", "Mticks/s", "instr/s",
                 "ticks skipped"};

    double total_mticks = 0.0;
    std::size_t measured = 0;
    const bool no_skip = simNoSkip();
    SimTimeline *tl = runner.timeline();
    for (const auto &cfg : appendixAPalette()) {
        // Times the raw single-core loop on purpose: the Runner's
        // key, memo and disk cache would be measured with it.
        // contest-lint: allow(runner-bypass)
        OooCore core(cfg, trace);
        const std::uint64_t step = core.periodPs().count();
        auto span_start = SimTimeline::now();
        auto start = Clock::now();
        TimePs now{};
        while (!core.done()) {
            core.tick(now);
            std::uint64_t ticks = 1;
            if (!no_skip && !core.done())
                ticks += core.skipIdleCycles(Cycles::max()).count();
            now += TimePs{step * ticks};
        }
        double sec = elapsedSec(start);
        if (tl != nullptr)
            tl->record(SimTimeline::Kind::Single,
                       bench + '@' + cfg.name, span_start, span_start,
                       SimTimeline::now(), false);
        double ticks = static_cast<double>(core.stats().cycles);
        double mticks_s = sec > 0.0 ? ticks / sec / 1e6 : 0.0;
        double instr_s = sec > 0.0
            ? static_cast<double>(core.stats().retired) / sec
            : 0.0;
        double skip_frac = ticks > 0.0
            ? static_cast<double>(core.idleSkipped()) / ticks
            : 0.0;
        t.row({cellText(cfg.name), cellNum(sec, 3),
               cellNum(mticks_s), cellNum(instr_s),
               cellPct(skip_frac)});
        total_mticks += mticks_s;
        ++measured;
    }

    // One contested pair: the sync points (GRB polling, store
    // queue, frontier tracking) bound how much skipping can help.
    // Raw engine on purpose, as above; the per-core skip counts also
    // need the live system. contest-lint: allow(runner-bypass)
    ContestSystem sys({coreConfigByName("gcc"),
                       coreConfigByName("twolf")},
                      trace);
    auto span_start = SimTimeline::now();
    auto start = Clock::now();
    ContestResult r = sys.run();
    double sec = elapsedSec(start);
    if (tl != nullptr)
        tl->record(SimTimeline::Kind::Contest, bench + "@gcc+twolf",
                   span_start, span_start, SimTimeline::now(), false);
    double ticks = 0.0;
    std::uint64_t retired = 0;
    std::uint64_t skipped = 0;
    for (CoreId c = 0; c < 2; ++c) {
        ticks += static_cast<double>(r.coreStats[c].cycles);
        retired += r.coreStats[c].retired;
        skipped += sys.core(c).idleSkipped().count();
    }
    double mticks_s = sec > 0.0 ? ticks / sec / 1e6 : 0.0;
    double instr_s =
        sec > 0.0 ? static_cast<double>(retired) / sec : 0.0;
    double skip_frac =
        ticks > 0.0 ? static_cast<double>(skipped) / ticks : 0.0;
    t.row({cellText("gcc+twolf contest"), cellNum(sec, 3),
           cellNum(mticks_s), cellNum(instr_s), cellPct(skip_frac)});
    total_mticks += mticks_s;
    ++measured;

    art.scalar("mean_mticks_per_s",
               total_mticks / static_cast<double>(measured));
    if (tl != nullptr) {
        // Export the per-simulation timeline so the perf-smoke CI
        // artifact carries scheduling data alongside the rates.
        SimTimeline::Summary s = tl->summary();
        art.scalar("timeline_sims", static_cast<double>(s.sims));
        art.scalar("timeline_busy_sec", s.busySec);
        art.scalar("timeline_wall_sec", s.wallSec);
        art.scalar("timeline_concurrency", s.concurrency());
    }
    art.note("wall-clock rates; not comparable across machines or "
             "against goldens. CONTEST_NO_SKIP=1 disables "
             "idle-cycle fast-forwarding for A/B measurements.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT_STANDALONE(
    "BENCH_throughput",
    "Simulator throughput (wall-clock Mticks/s, instr/s)",
    runThroughput);

} // namespace
} // namespace contest
