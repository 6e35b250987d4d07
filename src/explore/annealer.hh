/**
 * @file
 * XpScalar-style simulated-annealing design-space exploration
 * (paper Section 5.1, reference [19]).
 *
 * The explorer varies the same parameters the paper's appendix
 * reports: superscalar width, ROB / issue-queue / load-store-queue
 * sizes, front-end and scheduler depths, wakeup latency, L1/L2
 * geometry, and clock period. A simple technology model ties the
 * clock period to the sizes of the cycle-critical structures so the
 * annealer faces the same IPC-versus-frequency tradeoff the paper's
 * exploration did — growing the issue queue or widening the machine
 * costs clock rate, and cache latency follows capacity.
 */

#ifndef CONTEST_EXPLORE_ANNEALER_HH
#define CONTEST_EXPLORE_ANNEALER_HH

#include <cstdint>
#include <functional>

#include "common/rng.hh"
#include "core/config.hh"

namespace contest
{

/** Knobs of the annealing schedule. */
struct AnnealConfig
{
    StepCount steps{200};            //!< neighbors scored
    double initialTemperature = 0.2; //!< relative objective scale
    double coolingFactor = 0.97;     //!< temperature decay per step
    std::uint64_t seed = 1;          //!< move-generation seed
};

/** Result of one exploration. */
struct AnnealResult
{
    CoreConfig best;
    double bestScore = 0.0;
    /**
     * Design points proposed, the start point included: 1 plus the
     * sum of the round sizes. The walk scores only 1 + steps of them;
     * the candidates after a round's acceptance are proposed but
     * never scored.
     */
    std::uint64_t evaluations = 0;
    std::uint64_t accepted = 0;
};

/**
 * Derive the clock period and cache latencies implied by a
 * configuration's structure sizes (the technology model). Called on
 * every candidate so that the score always reflects a physically
 * consistent design point.
 */
void applyTechnologyModel(CoreConfig &config);

/**
 * Simulated-annealing exploration of the core design space.
 *
 * The walk goes in rounds: each round mutates a fixed number of
 * candidates from the current point and draws an acceptance uniform
 * for each, then scores them in order up to the first that passes
 * the Metropolis test. For a given start point, schedule and
 * objective, the walk depends only on the seed.
 *
 * @param objective scores a candidate (higher is better); typically
 *        the IPT of a workload via runSingle(). Called exactly
 *        1 + steps times, in order, on the calling thread.
 * @param start initial design point
 * @param anneal_config schedule parameters
 */
AnnealResult
annealCoreConfig(const std::function<double(const CoreConfig &)> &objective,
                 const CoreConfig &start,
                 const AnnealConfig &anneal_config);

} // namespace contest

#endif // CONTEST_EXPLORE_ANNEALER_HH
