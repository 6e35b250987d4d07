#include "common/stats.hh"

#include "common/log.hh"

namespace contest
{

double
arithmeticMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
harmonicMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double recip_sum = 0.0;
    for (double x : xs) {
        fatal_if(x <= 0.0, "harmonicMean requires positive values");
        recip_sum += 1.0 / x;
    }
    return static_cast<double>(xs.size()) / recip_sum;
}

std::size_t
argmaxFirst(const std::vector<double> &xs)
{
    fatal_if(xs.empty(), "argmaxFirst over an empty vector");
    std::size_t best = 0;
    for (std::size_t i = 1; i < xs.size(); ++i) {
        if (xs[i] > xs[best])
            best = i;
    }
    return best;
}

} // namespace contest
