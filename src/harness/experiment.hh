/**
 * @file
 * Small helpers shared by every figure/table of the experiment
 * suite.
 */

#ifndef CONTEST_HARNESS_EXPERIMENT_HH
#define CONTEST_HARNESS_EXPERIMENT_HH

#include "common/env.hh"
#include "common/table.hh"
#include "harness/runner.hh"

namespace contest
{

/** Speedup of @p value over @p baseline as a fraction. */
inline double
speedup(double value, double baseline)
{
    return baseline > 0.0 ? value / baseline - 1.0 : 0.0;
}

} // namespace contest

#endif // CONTEST_HARNESS_EXPERIMENT_HH
