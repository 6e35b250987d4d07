/**
 * @file
 * Lightweight statistics used by the core models and the experiment
 * harness: running scalar summaries and the mean families
 * (arithmetic / harmonic) the paper's figures of merit are built
 * from.
 */

#ifndef CONTEST_COMMON_STATS_HH
#define CONTEST_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace contest
{

/** Incremental min / max / mean / variance over a stream of samples. */
class RunningStat
{
  public:
    /** Record one sample. */
    void
    sample(double x)
    {
        ++n;
        double delta = x - meanAcc;
        meanAcc += delta / static_cast<double>(n);
        m2 += delta * (x - meanAcc);
        if (x < minV)
            minV = x;
        if (x > maxV)
            maxV = x;
    }

    /** Number of samples recorded so far. */
    std::uint64_t count() const { return n; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return n ? meanAcc : 0.0; }

    /** Population variance; 0 when fewer than two samples. */
    double
    variance() const
    {
        return n > 1 ? m2 / static_cast<double>(n) : 0.0;
    }

    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Smallest sample; +inf when empty. */
    double min() const { return minV; }

    /** Largest sample; -inf when empty. */
    double max() const { return maxV; }

    /** Forget all samples. */
    void
    reset()
    {
        n = 0;
        meanAcc = 0.0;
        m2 = 0.0;
        minV = std::numeric_limits<double>::infinity();
        maxV = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t n = 0;
    double meanAcc = 0.0;
    double m2 = 0.0;
    double minV = std::numeric_limits<double>::infinity();
    double maxV = -std::numeric_limits<double>::infinity();
};

/** Arithmetic mean of a vector; 0 when empty. */
double arithmeticMean(const std::vector<double> &xs);

/** Harmonic mean of a vector of positive values; 0 when empty. */
double harmonicMean(const std::vector<double> &xs);

/**
 * Weighted harmonic mean: sum(w) / sum(w / x). Weights and values
 * must be positive and the two vectors the same length.
 */
double weightedHarmonicMean(const std::vector<double> &xs,
                            const std::vector<double> &weights);

/**
 * Index of the largest element, ties resolved to the FIRST
 * occurrence. Every best-row scan in the experiment suite funnels
 * through this so tie-breaking is uniform (and independent of scan
 * direction or job count); fatal() on an empty vector.
 */
std::size_t argmaxFirst(const std::vector<double> &xs);

} // namespace contest

#endif // CONTEST_COMMON_STATS_HH
