/**
 * @file
 * Multiprogrammed-load scheduler simulation (paper Section 6.1).
 *
 * The contention-weighted harmonic-mean figure of merit is derived
 * from a queueing argument: under heavy load with jobs directed to
 * the core type they prefer, the number of job types sharing a core
 * type inflates its queue (Little's law). This module simulates
 * exactly that setting — stochastic job arrivals over a CMP with a
 * fixed number of cores of each type, a queue-at-preferred-type
 * scheduling policy, and per-job service times derived from the
 * measured IPT matrix — so the figure-of-merit reasoning can be
 * validated empirically rather than taken on faith.
 */

#ifndef CONTEST_SCHED_SCHEDULER_HH
#define CONTEST_SCHED_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "explore/cmp_design.hh"

namespace contest
{

/** Configuration of one multiprogrammed-load simulation. */
struct SchedConfig
{
    /** Total cores in the CMP, divided evenly over the design's
     *  core types (remainders go to the earlier types). */
    unsigned totalCores = 4;
    /** Mean instructions per job. */
    double jobInsts = 10e6;
    /** Mean job inter-arrival time in nanoseconds (exponential). */
    double meanInterarrivalNs = 1000.0;
    /** Number of jobs to simulate. */
    std::uint64_t numJobs = 2000;
    /** Arrival-process seed. */
    std::uint64_t seed = 1;
};

/** Outcome of one simulation. */
struct SchedResult
{
    /** Mean job turnaround (queueing + service) in nanoseconds. */
    double meanTurnaroundNs = 0.0;
    /** 95th-percentile turnaround in nanoseconds. */
    double p95TurnaroundNs = 0.0;
    /** Mean service-only time (the no-contention floor). */
    double meanServiceNs = 0.0;
    /** Mean queueing delay in nanoseconds. */
    double meanQueueNs = 0.0;
    /** Utilization of the busiest core. */
    double maxUtilization = 0.0;
    /** Jobs whose preferred type had the longest queue share. */
    std::vector<std::uint64_t> jobsPerType;
};

/**
 * Simulate a stream of jobs over a CMP built from the given design.
 * Each arriving job is one of the matrix's benchmarks (uniform over
 * benchmarks, as the paper assumes) and queues at the earliest-free
 * core of its preferred type, even if a core of another type is
 * idle; its service time on a core of type c is
 * jobInsts / ipt[bench][c] nanoseconds.
 */
SchedResult simulateLoad(const IptMatrix &matrix,
                         const CmpDesign &design,
                         const SchedConfig &config);

} // namespace contest

#endif // CONTEST_SCHED_SCHEDULER_HH
