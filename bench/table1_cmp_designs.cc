/**
 * @file
 * Table 1 — constrained heterogeneous CMP designs. Exhaustive
 * search over pairs of core types under the three figures of merit
 * (avg, har, cw-har) produces HET-A/B/C; HOM is the best single
 * core type; HET-ALL contains every customized core.
 */

#include "bench/bench_common.hh"

#include <algorithm>

namespace contest
{
namespace
{

void
runTable1(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;
    const auto &m = runner.matrix();

    auto het_a = designCmp(m, 2, Merit::Avg, "HET-A");
    auto het_b = designCmp(m, 2, Merit::Har, "HET-B");
    auto het_c = designCmp(m, 2, Merit::CwHar, "HET-C");
    auto hom_avg = designHom(m, Merit::Avg, "HOM");
    auto hom_har = designHom(m, Merit::Har, "HOM");
    auto het_all = designHetAll(m, "HET-ALL");

    auto &t = art.table("Table 1: five CMP designs and their "
                        "performance");
    t.columns = {"design", "merit", "core types",
                 "harmonic-mean IPT"};
    for (const auto *d : {&het_a, &het_b, &het_c}) {
        t.row({cellText(d->name), cellText(meritName(d->merit)),
               cellText(designCoreNames(m, *d)),
               cellNum(designHarmonicIpt(m, *d))});
    }
    std::string hom_merits =
        hom_avg.cores == hom_har.cores ? "avg or har" : "avg";
    t.row({cellText("HOM"), cellText(hom_merits),
           cellText(designCoreNames(m, hom_avg)),
           cellNum(designHarmonicIpt(m, hom_avg))});
    if (hom_avg.cores != hom_har.cores)
        t.row({cellText("HOM(har)"), cellText("har"),
               cellText(designCoreNames(m, hom_har)),
               cellNum(designHarmonicIpt(m, hom_har))});
    t.row({cellText("HET-ALL"), cellText("n/a"),
           cellText("all customized cores"),
           cellNum(designHarmonicIpt(m, het_all))});

    double hom_ipt = designHarmonicIpt(m, hom_avg);
    double het_all_sp =
        speedup(designHarmonicIpt(m, het_all), hom_ipt);
    double best_two_sp =
        speedup(std::max({designHarmonicIpt(m, het_a),
                          designHarmonicIpt(m, het_b),
                          designHarmonicIpt(m, het_c)}),
                hom_ipt);
    art.scalar("het_all_over_hom", het_all_sp);
    art.scalar("best_two_type_over_hom", best_two_sp);
    art.note("HET-ALL over HOM: " + TextTable::pct(het_all_sp)
             + " (paper: +34%). Best two-type design over HOM: "
             + TextTable::pct(best_two_sp) + " (paper: HET-C +19%).");

    // The paper also notes a four-type design comes within 2% of
    // HET-ALL.
    auto het4 = designCmp(m, 4, Merit::Har, "HET-4");
    double het4_gap = speedup(designHarmonicIpt(m, het_all),
                              designHarmonicIpt(m, het4));
    art.scalar("four_type_gap_to_het_all", het4_gap);
    art.note("Four-type design (" + designCoreNames(m, het4)
             + "): harmonic-mean IPT "
             + TextTable::num(designHarmonicIpt(m, het4))
             + ", within " + TextTable::pct(het4_gap)
             + " of HET-ALL (paper: within 2%).");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("table1", "Table 1: CMP designs", runTable1);

} // namespace
} // namespace contest
