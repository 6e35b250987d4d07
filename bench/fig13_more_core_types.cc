/**
 * @file
 * Figure 13 — contesting between two core types (HET-C) versus
 * exploiting more core types without contesting: HET-D (the best
 * three-type design under har) and HET-ALL (every benchmark on its
 * own customized core, as in the paper).
 */

#include "bench/bench_common.hh"

namespace contest
{
namespace
{

void
runFig13(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;
    const auto &m = runner.matrix();

    auto het_c = designCmp(m, 2, Merit::CwHar, "HET-C");
    auto het_d = designCmp(m, 3, Merit::Har, "HET-D");
    const std::string core_a = m.coreNames[het_c.cores[0]];
    const std::string core_b = m.coreNames[het_c.cores[1]];

    auto &t = art.table("Figure 13: HET-C ("
                        + designCoreNames(m, het_c)
                        + ") contesting vs HET-D ("
                        + designCoreNames(m, het_d)
                        + ") and HET-ALL without contesting");
    t.columns = {"bench", "HET-C contest", "HET-D no-contest",
                 "HET-ALL (own core)"};

    // The per-benchmark HET-C contests are independent: sweep them
    // on the harness pool.
    auto contests = runner.runParallel(m.numBenches(), [&](std::size_t b) {
        return runner.contestedPair(m.benchNames[b], core_a, core_b);
    });

    std::vector<double> c_ipts;
    std::vector<double> d_ipts;
    std::vector<double> all_ipts;
    for (std::size_t b = 0; b < m.numBenches(); ++b) {
        const auto &bench = m.benchNames[b];
        const auto &r = contests[b];
        double d_ipt = m.ipt[b][bestCoreFor(m, b, het_d.cores)];
        double own_ipt = m.ipt[b][m.coreIndex(bench)];
        c_ipts.push_back(r.ipt);
        d_ipts.push_back(d_ipt);
        all_ipts.push_back(own_ipt);
        t.row({cellText(bench), cellNum(r.ipt), cellNum(d_ipt),
               cellNum(own_ipt)});
    }
    t.row({cellText("HAR-MEAN"), cellNum(harmonicMean(c_ipts)),
           cellNum(harmonicMean(d_ipts)),
           cellNum(harmonicMean(all_ipts))});

    double two_vs_three =
        speedup(harmonicMean(c_ipts), harmonicMean(d_ipts));
    art.scalar("two_type_contest_vs_three_type", two_vs_three);
    art.note("Two-type contesting vs three-type selection: "
             + TextTable::pct(two_vs_three)
             + " (harmonic mean). Paper: contesting between two core "
               "types matches or beats executing on the best of "
               "three types, and on average matches eleven types — a "
               "more cost-effective route to single-thread "
               "performance than more core types.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("fig13", "Figure 13: contesting vs more core types",
                    runFig13);

} // namespace
} // namespace contest
