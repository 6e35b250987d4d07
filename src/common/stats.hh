/**
 * @file
 * Lightweight statistics used by the experiment harness: the mean
 * families (arithmetic / harmonic) the paper's figures of merit are
 * built from, and first-wins argmax.
 */

#ifndef CONTEST_COMMON_STATS_HH
#define CONTEST_COMMON_STATS_HH

#include <vector>

namespace contest
{

/** Arithmetic mean of a vector; 0 when empty. */
double arithmeticMean(const std::vector<double> &xs);

/** Harmonic mean of a vector of positive values; 0 when empty. */
double harmonicMean(const std::vector<double> &xs);

/**
 * Index of the largest element, ties resolved to the FIRST
 * occurrence. Every best-row scan in the experiment suite funnels
 * through this so tie-breaking is uniform (and independent of scan
 * direction or job count); fatal() on an empty vector.
 */
std::size_t argmaxFirst(const std::vector<double> &xs);

} // namespace contest

#endif // CONTEST_COMMON_STATS_HH
