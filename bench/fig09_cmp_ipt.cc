/**
 * @file
 * Figure 9 — per-benchmark IPT on the five CMP designs of Table 1,
 * each benchmark running on the most suitable core type available
 * in the design.
 */

#include "bench/bench_common.hh"

namespace contest
{
namespace
{

void
runFig09(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    Runner &runner = ctx.runner;
    const auto &m = runner.matrix();

    auto het_a = designCmp(m, 2, Merit::Avg, "HET-A");
    auto het_b = designCmp(m, 2, Merit::Har, "HET-B");
    auto het_c = designCmp(m, 2, Merit::CwHar, "HET-C");
    auto hom = designHom(m, Merit::Avg, "HOM");
    auto het_all = designHetAll(m, "HET-ALL");
    std::vector<const CmpDesign *> designs{&het_a, &het_b, &het_c,
                                           &hom, &het_all};

    auto &t = art.table("Figure 9: IPT on the most suitable core of "
                        "each design");
    std::vector<std::string> head{"bench"};
    for (const auto *d : designs)
        head.push_back(d->name + " (" + designCoreNames(m, *d)
                       + ")");
    // HET-ALL's core list is long; shorten its header.
    head.back() = "HET-ALL";
    t.columns = head;

    for (std::size_t b = 0; b < m.numBenches(); ++b) {
        std::vector<ArtifactCell> cells{cellText(m.benchNames[b])};
        for (const auto *d : designs)
            cells.push_back(
                cellNum(m.ipt[b][bestCoreFor(m, b, d->cores)]));
        t.row(std::move(cells));
    }

    art.note("Paper: the choice of available core types visibly "
             "moves individual benchmarks (Figure 9); HET-ALL "
             "upper-bounds every row.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("fig09", "Figure 9: per-benchmark IPT per CMP design",
                    runFig09);

} // namespace
} // namespace contest
