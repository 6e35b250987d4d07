#include "explore/merit.hh"

#include "common/log.hh"
#include "common/stats.hh"

namespace contest
{

std::size_t
IptMatrix::coreIndex(const std::string &name) const
{
    for (std::size_t c = 0; c < coreNames.size(); ++c)
        if (coreNames[c] == name)
            return c;
    fatal("IptMatrix: unknown core type '%s'", name.c_str());
}

std::size_t
IptMatrix::benchIndex(const std::string &name) const
{
    for (std::size_t b = 0; b < benchNames.size(); ++b)
        if (benchNames[b] == name)
            return b;
    fatal("IptMatrix: unknown benchmark '%s'", name.c_str());
}

void
IptMatrix::validate() const
{
    fatal_if(ipt.size() != benchNames.size(),
             "IptMatrix: %zu rows for %zu benchmarks", ipt.size(),
             benchNames.size());
    for (const auto &row : ipt) {
        fatal_if(row.size() != coreNames.size(),
                 "IptMatrix: row width %zu for %zu core types",
                 row.size(), coreNames.size());
        for (double v : row)
            fatal_if(v <= 0.0, "IptMatrix: non-positive IPT %f", v);
    }
}

const char *
meritName(Merit merit)
{
    switch (merit) {
      case Merit::Avg:
        return "avg";
      case Merit::Har:
        return "har";
      case Merit::CwHar:
        return "cw-har";
    }
    panic("unknown Merit %d", static_cast<int>(merit));
}

std::size_t
bestCoreFor(const IptMatrix &matrix, std::size_t bench,
            const std::vector<std::size_t> &cores)
{
    panic_if(cores.empty(), "bestCoreFor with empty core set");
    std::size_t best = cores.front();
    for (std::size_t c : cores)
        if (matrix.ipt[bench][c] > matrix.ipt[bench][best])
            best = c;
    return best;
}

std::vector<double>
bestIpts(const IptMatrix &matrix, const std::vector<std::size_t> &cores)
{
    std::vector<double> out;
    out.reserve(matrix.numBenches());
    for (std::size_t b = 0; b < matrix.numBenches(); ++b)
        out.push_back(matrix.ipt[b][bestCoreFor(matrix, b, cores)]);
    return out;
}

double
scoreCmp(const IptMatrix &matrix,
         const std::vector<std::size_t> &cores, Merit merit)
{
    panic_if(cores.empty(), "scoreCmp with empty core set");

    std::vector<double> best = bestIpts(matrix, cores);
    switch (merit) {
      case Merit::Avg:
        return arithmeticMean(best);
      case Merit::Har:
        return harmonicMean(best);
      case Merit::CwHar:
        {
            // Each benchmark's effective IPT is divided by the
            // number of benchmarks that prefer the same core type
            // (Little's law under the queue-at-preferred-core
            // scheduling policy of Section 6.1).
            std::vector<std::size_t> share(matrix.numCores(), 0);
            std::vector<std::size_t> pref(matrix.numBenches());
            for (std::size_t b = 0; b < matrix.numBenches(); ++b) {
                pref[b] = bestCoreFor(matrix, b, cores);
                ++share[pref[b]];
            }
            std::vector<double> weighted;
            weighted.reserve(matrix.numBenches());
            for (std::size_t b = 0; b < matrix.numBenches(); ++b)
                weighted.push_back(
                    best[b] / static_cast<double>(share[pref[b]]));
            return harmonicMean(weighted);
        }
    }
    panic("unknown Merit %d", static_cast<int>(merit));
}

} // namespace contest
