/**
 * @file
 * Shared scaffolding for the experiment suite: the parallel sweep
 * helper and the HET-design experiment used by Figures 10-13.
 * Experiments register themselves with REGISTER_EXPERIMENT
 * (harness/registry.hh) and emit FigureArtifacts
 * (harness/artifact.hh); the contest_bench driver selects and runs
 * them.
 */

#ifndef CONTEST_BENCH_COMMON_HH
#define CONTEST_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "explore/cmp_design.hh"
#include "harness/experiment.hh"
#include "harness/registry.hh"

namespace contest
{

/**
 * Map fn over [0, n) on the process-wide thread pool and return the
 * results in index order. Each task writes only its own slot, so the
 * output is bit-identical to a serial loop for any CONTEST_JOBS.
 */
template <typename Fn>
auto
runParallel(std::size_t n, Fn fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    std::vector<decltype(fn(std::size_t{0}))> out(n);
    ThreadPool::global().parallelFor(
        n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Figure 10/11/12 style experiment: each benchmark on the HOM core,
 * on the best core of a two-type HET design, and contested between
 * the design's two core types.
 */
struct HetRow
{
    std::string bench;
    double homIpt = 0.0;
    double bestIpt = 0.0;     //!< best available core, no contesting
    double contestIpt = 0.0;  //!< contested between the two types
    bool parked = false;      //!< a saturated lagger was parked
};

struct HetExperiment
{
    CmpDesign design;
    CmpDesign hom;
    std::vector<HetRow> rows;
    double avgContestSpeedup = 0.0; //!< vs best available core
    double maxContestSpeedup = 0.0;
    std::string maxSpeedupBench;
    double avgVsHom = 0.0;          //!< contesting vs HOM
    double avgNoContestVsHom = 0.0; //!< best-available vs HOM
};

/** Run the HET experiment for a given two-type design. */
inline HetExperiment
runHetExperiment(Runner &runner, const CmpDesign &design,
                 const CmpDesign &hom)
{
    const auto &m = runner.matrix();
    fatal_if(design.cores.size() != 2,
             "runHetExperiment needs a two-type design");
    const std::string core_a = m.coreNames[design.cores[0]];
    const std::string core_b = m.coreNames[design.cores[1]];

    HetExperiment exp;
    exp.design = design;
    exp.hom = hom;

    std::vector<double> contest_speedups;
    std::vector<double> vs_hom;
    std::vector<double> nocontest_vs_hom;
    for (std::size_t b = 0; b < m.numBenches(); ++b) {
        HetRow row;
        row.bench = m.benchNames[b];
        row.homIpt = m.ipt[b][hom.cores[0]];
        row.bestIpt = m.ipt[b][bestCoreFor(m, b, design.cores)];
        auto r = runner.contestedPair(row.bench, core_a, core_b);
        row.contestIpt = r.ipt;
        row.parked =
            r.unitStats[0].saturated || r.unitStats[1].saturated;
        exp.rows.push_back(row);

        contest_speedups.push_back(
            speedup(row.contestIpt, row.bestIpt));
        vs_hom.push_back(speedup(row.contestIpt, row.homIpt));
        nocontest_vs_hom.push_back(speedup(row.bestIpt, row.homIpt));
    }
    std::size_t max_at = argmaxFirst(contest_speedups);
    exp.maxContestSpeedup = contest_speedups[max_at];
    exp.maxSpeedupBench = exp.rows[max_at].bench;
    exp.avgContestSpeedup = arithmeticMean(contest_speedups);
    exp.avgVsHom = arithmeticMean(vs_hom);
    exp.avgNoContestVsHom = arithmeticMean(nocontest_vs_hom);
    return exp;
}

/**
 * Append a HET experiment to an artifact in the Figure 10-12 format:
 * the per-benchmark table, the summary scalars, and the summary
 * sentence as a note.
 */
inline void
hetArtifact(FigureArtifact &art, const HetExperiment &exp,
            const IptMatrix &m, const std::string &figure)
{
    auto &t = art.table(figure + ": IPT on HOM ("
                        + m.coreNames[exp.hom.cores[0]] + "), "
                        + exp.design.name + " ("
                        + designCoreNames(m, exp.design)
                        + ") without and with contesting");
    t.columns = {"bench", "HOM", exp.design.name + " no-contest",
                 exp.design.name + " contest", "speedup", "lagger"};
    for (const auto &row : exp.rows) {
        t.row({cellText(row.bench), cellNum(row.homIpt),
               cellNum(row.bestIpt), cellNum(row.contestIpt),
               cellPct(speedup(row.contestIpt, row.bestIpt)),
               cellText(row.parked ? "parked" : "-")});
    }

    art.scalar("avg_contest_speedup", exp.avgContestSpeedup);
    art.scalar("max_contest_speedup", exp.maxContestSpeedup);
    art.scalar("avg_vs_hom", exp.avgVsHom);
    art.scalar("avg_nocontest_vs_hom", exp.avgNoContestVsHom);

    art.note(exp.design.name + " contesting: avg "
             + TextTable::pct(exp.avgContestSpeedup) + " / max "
             + TextTable::pct(exp.maxContestSpeedup) + " ("
             + exp.maxSpeedupBench + ") over the best available "
             + "core; avg " + TextTable::pct(exp.avgVsHom)
             + " over HOM (no contesting: "
             + TextTable::pct(exp.avgNoContestVsHom) + ")");
}

} // namespace contest

#endif // CONTEST_BENCH_COMMON_HH
