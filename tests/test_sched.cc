/**
 * @file
 * Unit tests for the multiprogrammed-load scheduler simulation and
 * the energy model.
 */

#include <gtest/gtest.h>

#include "power/energy.hh"
#include "sched/scheduler.hh"

namespace contest
{
namespace
{

/** Two benchmarks, two symmetric core types: b0 prefers c0, b1
 *  prefers c1, both by the same factor. */
IptMatrix
symmetricMatrix()
{
    IptMatrix m;
    m.benchNames = {"b0", "b1"};
    m.coreNames = {"c0", "c1"};
    m.ipt = {
        {4.0, 1.0},
        {1.0, 4.0},
    };
    m.validate();
    return m;
}

/** Both benchmarks prefer c0; c1 is everyone's second choice. */
IptMatrix
skewedMatrix()
{
    IptMatrix m;
    m.benchNames = {"b0", "b1"};
    m.coreNames = {"c0", "c1"};
    m.ipt = {
        {4.0, 3.5},
        {4.0, 3.5},
    };
    m.validate();
    return m;
}

CmpDesign
pairDesign(const IptMatrix &m)
{
    CmpDesign d;
    d.name = "PAIR";
    d.cores = {0, 1};
    d.score = scoreCmp(m, d.cores, Merit::Har);
    return d;
}

TEST(Scheduler, LightLoadHasNoQueueing)
{
    auto m = symmetricMatrix();
    SchedConfig cfg;
    cfg.totalCores = 4;
    cfg.jobInsts = 1e6;            // 250k ns on the preferred core
    cfg.meanInterarrivalNs = 1e7;  // essentially idle system
    cfg.numJobs = 300;
    auto r = simulateLoad(m, pairDesign(m), cfg);
    EXPECT_NEAR(r.meanQueueNs, 0.0, r.meanServiceNs * 0.01);
    EXPECT_NEAR(r.meanServiceNs, 250'000.0, 25'000.0);
}

TEST(Scheduler, HeavyLoadQueues)
{
    auto m = symmetricMatrix();
    SchedConfig cfg;
    cfg.totalCores = 2;
    cfg.jobInsts = 1e6;
    // Each core type receives a job every ~240k ns on average but
    // needs 250k ns to serve one: the queues grow without bound.
    cfg.meanInterarrivalNs = 120'000.0;
    cfg.numJobs = 1000;
    auto r = simulateLoad(m, pairDesign(m), cfg);
    EXPECT_GT(r.meanQueueNs, r.meanServiceNs);
    EXPECT_GT(r.maxUtilization, 0.9);
}

TEST(Scheduler, BalancedPreferencesBeatSkewedUnderLoad)
{
    // The Section 6.1 argument: with queue-at-preferred-type
    // scheduling, a design where every job type prefers the same
    // core turns half the machine into dead weight.
    SchedConfig cfg;
    cfg.totalCores = 2;
    cfg.jobInsts = 1e6;
    cfg.meanInterarrivalNs = 300'000.0;
    cfg.numJobs = 1500;

    auto balanced = symmetricMatrix();
    auto skewed = skewedMatrix();
    auto r_bal = simulateLoad(balanced, pairDesign(balanced), cfg);
    auto r_skew = simulateLoad(skewed, pairDesign(skewed), cfg);
    EXPECT_LT(r_bal.meanTurnaroundNs, r_skew.meanTurnaroundNs / 2);
}

TEST(Scheduler, JobCountsCoverAllJobs)
{
    auto m = symmetricMatrix();
    SchedConfig cfg;
    cfg.numJobs = 500;
    auto r = simulateLoad(m, pairDesign(m), cfg);
    std::uint64_t total = 0;
    for (auto c : r.jobsPerType)
        total += c;
    EXPECT_EQ(total, cfg.numJobs);
}

TEST(Scheduler, DeterministicForEqualSeeds)
{
    auto m = symmetricMatrix();
    SchedConfig cfg;
    cfg.numJobs = 400;
    cfg.seed = 17;
    auto r1 = simulateLoad(m, pairDesign(m), cfg);
    auto r2 = simulateLoad(m, pairDesign(m), cfg);
    EXPECT_EQ(r1.meanTurnaroundNs, r2.meanTurnaroundNs);
    EXPECT_EQ(r1.p95TurnaroundNs, r2.p95TurnaroundNs);
}

TEST(Energy, StaticScalesWithStructuresAndTime)
{
    CoreConfig small;
    small.robSize = 64;
    small.iqSize = 16;
    small.width = 2;
    CoreConfig big = small;
    big.robSize = 1024;
    big.iqSize = 128;
    big.width = 8;
    EXPECT_GT(staticPowerW(big), staticPowerW(small) * 1.5);

    CoreStats stats;
    ActivityCounts none;
    auto e1 = estimateEnergy(small, stats, none, TimePs{1'000'000});
    auto e2 = estimateEnergy(small, stats, none, TimePs{2'000'000});
    EXPECT_NEAR(e2.staticNj, 2.0 * e1.staticNj, 1e-9);
}

TEST(Energy, DynamicTracksActivity)
{
    CoreConfig cfg;
    CoreStats stats;
    stats.retired = 1000;
    stats.condBranches = 100;
    stats.mispredicts = 10;
    ActivityCounts activity;
    activity.l1Accesses = 300;
    activity.l1Misses = 30;
    activity.l2Accesses = 30;
    activity.l2Misses = 5;
    auto e = estimateEnergy(cfg, stats, activity, TimePs{});
    EXPECT_GT(e.pipelineNj, 0.0);
    EXPECT_GT(e.cacheNj, 0.0);
    EXPECT_GT(e.bpredNj, 0.0);
    EXPECT_GT(e.squashNj, 0.0);
    EXPECT_EQ(e.staticNj, 0.0);
    EXPECT_EQ(e.contestNj, 0.0);
    EXPECT_GT(e.totalNj(), 0.0);
}

TEST(Energy, InjectedWorkIsCheaperThanExecuted)
{
    CoreConfig cfg;
    ActivityCounts activity;
    CoreStats executed_all;
    executed_all.retired = 1000;
    CoreStats injected_all = executed_all;
    injected_all.injected = 1000;
    auto e_exec = estimateEnergy(cfg, executed_all, activity, TimePs{});
    auto e_inj = estimateEnergy(cfg, injected_all, activity, TimePs{});
    EXPECT_LT(e_inj.pipelineNj, e_exec.pipelineNj);
}

TEST(Energy, ContestEnergyCountsBusAndInjections)
{
    CoreConfig cfg;
    CoreStats stats;
    ActivityCounts activity;
    activity.grbBroadcasts = 1000;
    activity.injections = 500;
    auto e = estimateEnergy(cfg, stats, activity, TimePs{});
    EXPECT_GT(e.contestNj, 0.0);
}

} // namespace
} // namespace contest
