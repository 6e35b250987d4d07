/**
 * @file
 * Unit tests for the experiment harness: region logs, oracle
 * granularity fusion, the caching runner, and best-pair search.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/palette.hh"
#include "harness/runner.hh"

namespace contest
{
namespace
{

TEST(RegionLog, ClosesEveryTwentyInstructions)
{
    RegionLog log;
    TimePs now{};
    for (InstSeq seq{}; seq < 100; ++seq) {
        now += 10;
        log.onRetire(seq, now);
    }
    EXPECT_EQ(log.size(), 5u);
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(log[i], 200u); // 20 retirements x 10 ps
    EXPECT_EQ(log.total(), 1000u);
}

TEST(Fusion, PicksTheFasterSeriesPerBlock)
{
    // Config A is fast in even regions, B in odd regions.
    std::vector<TimePs> a{TimePs{10}, TimePs{100}, TimePs{10}, TimePs{100}};
    std::vector<TimePs> b{TimePs{100}, TimePs{10}, TimePs{100}, TimePs{10}};
    // Granularity 1 region: oracle gets 10 everywhere.
    EXPECT_EQ(fuseRegionTimes(a, b, 1), 40u);
    // Granularity 2 regions: each block is 110 on both.
    EXPECT_EQ(fuseRegionTimes(a, b, 2), 220u);
    // Whole-run granularity: min(220, 220).
    EXPECT_EQ(fuseRegionTimes(a, b, 4), 220u);
}

TEST(Fusion, HandlesUnequalLengths)
{
    std::vector<TimePs> a{TimePs{10}, TimePs{10}, TimePs{10}};
    std::vector<TimePs> b{TimePs{5}, TimePs{5}};
    EXPECT_EQ(fuseRegionTimes(a, b, 1), 10u);
}

TEST(Runner, CachesSingleRuns)
{
    ThreadPool pool(1);
    Runner runner({8000, 1}, &pool);
    const auto &first = runner.single("vpr", "vpr");
    const auto &again = runner.single("vpr", "vpr");
    EXPECT_EQ(&first, &again);
    EXPECT_GT(first.result.ipt, 0.0);
    EXPECT_EQ(first.regions->size(), 8000u / RegionLog::regionInsts);
}

TEST(Runner, TraceIsSharedAcrossRuns)
{
    ThreadPool pool(1);
    Runner runner({5000, 2}, &pool);
    auto t1 = runner.trace("gcc");
    auto t2 = runner.trace("gcc");
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_EQ(t1->size(), 5000u);
}

TEST(Runner, MatrixCoversAllBenchmarksAndCores)
{
    ThreadPool pool(4);
    Runner runner({4000, 3}, &pool);
    const auto &m = runner.matrix();
    EXPECT_EQ(m.numBenches(), 11u);
    EXPECT_EQ(m.numCores(), 11u);
    m.validate();
    // Cached: same object on re-query.
    EXPECT_EQ(&m, &runner.matrix());
}

TEST(Runner, RegionLogTotalsMatchRunTime)
{
    ThreadPool pool(1);
    Runner runner({8000, 4}, &pool);
    const auto &run = runner.single("twolf", "twolf");
    // The region log accounts for every closed region; its total
    // cannot exceed the run time and must cover most of it.
    EXPECT_LE(run.regions->total(), run.result.timePs);
    EXPECT_GT(run.regions->total(), run.result.timePs / 2);
}

TEST(Runner, ContestedPairRuns)
{
    ThreadPool pool(1);
    Runner runner({8000, 5}, &pool);
    auto r = runner.contestedPair("gcc", "twolf", "gzip");
    EXPECT_GT(r.ipt, 0.0);
    EXPECT_EQ(r.coreStats.size(), 2u);
}

TEST(Runner, IfReadyProbesSeeOnlyFinishedResults)
{
    ThreadPool pool(1);
    Runner runner({8000, 7}, &pool);
    const CoreConfig &gcc = coreConfigByName("gcc");
    const std::vector<CoreConfig> pair = {gcc, coreConfigByName("twolf")};
    EXPECT_EQ(runner.singleIfReady("gcc", gcc), nullptr);
    EXPECT_EQ(runner.contestedIfReady("gcc", pair, ContestConfig{}),
              nullptr);

    // A probe racing the simulations sees nothing until a result is
    // finished, then the result itself.
    const LoggedRun *singleSeen = nullptr;
    const ContestResult *contestSeen = nullptr;
    TimePs singlePs{};
    TimePs contestPs{};
    std::thread probe([&] {
        while (singleSeen == nullptr || contestSeen == nullptr) {
            if (singleSeen == nullptr) {
                singleSeen = runner.singleIfReady("gcc", gcc);
                if (singleSeen != nullptr)
                    singlePs = singleSeen->result.timePs;
            }
            if (contestSeen == nullptr) {
                contestSeen =
                    runner.contestedIfReady("gcc", pair, ContestConfig{});
                if (contestSeen != nullptr)
                    contestPs = contestSeen->timePs;
            }
        }
    });
    const LoggedRun &run = runner.single("gcc", gcc);
    const ContestResult &result =
        runner.contested("gcc", pair, ContestConfig{});
    probe.join();
    EXPECT_EQ(singleSeen, &run);
    EXPECT_EQ(singlePs, run.result.timePs);
    EXPECT_EQ(contestSeen, &result);
    EXPECT_EQ(contestPs, result.timePs);

    // The trace length is part of the key.
    EXPECT_EQ(runner.singleIfReady("gcc", gcc, 4000), nullptr);
    EXPECT_EQ(runner.contestedIfReady("gcc", pair, ContestConfig{}, 4000),
              nullptr);
    EXPECT_EQ(runner.simulationsPerformed(), 1u);
    EXPECT_EQ(runner.contestsPerformed(), 1u);
}

TEST(Runner, MatrixIsIdenticalForAnyJobCount)
{
    // The harness promises bit-identical results regardless of
    // concurrency: every matrix cell from a four-thread run must
    // compare exactly equal (not merely close) to the serial run.
    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    Runner serial({4000, 3}, &serial_pool);
    Runner parallel({4000, 3}, &parallel_pool);
    const auto &ms = serial.matrix();
    const auto &mp = parallel.matrix();
    ASSERT_EQ(ms.numBenches(), mp.numBenches());
    ASSERT_EQ(ms.numCores(), mp.numCores());
    EXPECT_EQ(ms.benchNames, mp.benchNames);
    EXPECT_EQ(ms.coreNames, mp.coreNames);
    for (std::size_t b = 0; b < ms.numBenches(); ++b)
        for (std::size_t c = 0; c < ms.numCores(); ++c)
            EXPECT_EQ(ms.ipt[b][c], mp.ipt[b][c])
                << ms.benchNames[b] << " on " << ms.coreNames[c];
}

TEST(Runner, RunParallelStaysOnTheRunnersPool)
{
    // A daemon gives its Runner the daemon's own pool, and an
    // experiment's fan-out must run there, not on another pool.
    // Over a one-job pool that means every index on the calling
    // thread, in index order.
    ThreadPool pool(1);
    Runner runner({4000, 3}, &pool);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    auto out = runner.runParallel(5, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return 10 * i;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(out, (std::vector<std::size_t>{0, 10, 20, 30, 40}));
}

TEST(Runner, BestContestingPairIsIdenticalForAnyJobCount)
{
    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    Runner serial({8000, 6}, &serial_pool);
    Runner parallel({8000, 6}, &parallel_pool);
    auto cs = serial.bestContestingPair("gcc", {}, 3);
    auto cp = parallel.bestContestingPair("gcc", {}, 3);
    EXPECT_EQ(cs.coreA, cp.coreA);
    EXPECT_EQ(cs.coreB, cp.coreB);
    EXPECT_EQ(cs.result.ipt, cp.result.ipt);
}

TEST(Runner, BestContestingPairBeatsOwnCore)
{
    ThreadPool pool(4);
    Runner runner({20000, 6}, &pool);
    auto choice = runner.bestContestingPair("gcc", {}, 3);
    EXPECT_FALSE(choice.coreA.empty());
    EXPECT_FALSE(choice.coreB.empty());
    EXPECT_NE(choice.coreA, choice.coreB);
    double own = runner.single("gcc", "gcc").result.ipt;
    // Contesting the best pair must at least match the benchmark's
    // own customized core (the paper's Figure 6 baseline).
    EXPECT_GT(choice.result.ipt, own * 0.98);
}

} // namespace
} // namespace contest
