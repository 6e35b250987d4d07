/**
 * @file
 * Unit tests for the migrational-baseline evaluator and the
 * asynchronous-interrupt (terminate-and-refork) machinery.
 */

#include <gtest/gtest.h>

#include "contest/system.hh"
#include "core/palette.hh"
#include "harness/migration.hh"
#include "harness/runner.hh"
#include "trace/generator.hh"

namespace contest
{
namespace
{

TEST(Migration, OracleSwitchesWhenProfitable)
{
    // A alternates fast/slow blocks against B (times per region).
    std::vector<TimePs> a{TimePs{10}, TimePs{10}, TimePs{100}, TimePs{100}, TimePs{10}, TimePs{10}, TimePs{100}, TimePs{100}};
    std::vector<TimePs> b{TimePs{100}, TimePs{100}, TimePs{10}, TimePs{10}, TimePs{100}, TimePs{100}, TimePs{10}, TimePs{10}};
    MigrationConfig cfg;
    cfg.regionsPerBlock = 2;
    cfg.migrationPenaltyPs = TimePs{};
    cfg.policy = MigrationPolicy::Oracle;
    auto r = simulateMigration(a, b, cfg);
    EXPECT_EQ(r.totalPs, 80u); // 4 blocks x 20 ps each
    EXPECT_EQ(r.migrations, 3u);
    EXPECT_DOUBLE_EQ(r.shareA, 0.5);
}

TEST(Migration, PenaltyMakesSwitchingUnprofitable)
{
    std::vector<TimePs> a{TimePs{10}, TimePs{100}, TimePs{10}, TimePs{100}};
    std::vector<TimePs> b{TimePs{100}, TimePs{10}, TimePs{100}, TimePs{10}};
    MigrationConfig cfg;
    cfg.regionsPerBlock = 1;
    cfg.policy = MigrationPolicy::Oracle;

    cfg.migrationPenaltyPs = TimePs{};
    auto free_switch = simulateMigration(a, b, cfg);
    EXPECT_EQ(free_switch.totalPs, 40u);

    cfg.migrationPenaltyPs = TimePs{1000};
    auto costly = simulateMigration(a, b, cfg);
    // The oracle here is per-block greedy; penalties add up.
    EXPECT_EQ(costly.totalPs, 40u + 3u * 1000u);
    EXPECT_GT(costly.totalPs, 220u); // worse than staying on A
}

TEST(Migration, HistoryLagsOneBlock)
{
    // Behaviour flips every block, so yesterday's winner is always
    // today's loser: history picks wrong every time after block 0.
    std::vector<TimePs> a{TimePs{10}, TimePs{100}, TimePs{10}, TimePs{100}};
    std::vector<TimePs> b{TimePs{100}, TimePs{10}, TimePs{100}, TimePs{10}};
    MigrationConfig cfg;
    cfg.regionsPerBlock = 1;
    cfg.migrationPenaltyPs = TimePs{};
    cfg.policy = MigrationPolicy::History;
    auto r = simulateMigration(a, b, cfg);
    // Block 0 on A (10), then always the previous winner: block 1
    // on A (100), block 2 on B (100), block 3 on A (100).
    EXPECT_EQ(r.totalPs, 310u);
}

TEST(Migration, CoarserBlocksReduceOpportunity)
{
    ThreadPool pool(1);
    Runner runner({40000, 11}, &pool);
    const auto &ra = runner.single("twolf", "twolf");
    const auto &rb = runner.single("twolf", "vpr");
    MigrationConfig fine;
    fine.regionsPerBlock = 1;
    fine.migrationPenaltyPs = TimePs{};
    MigrationConfig coarse = fine;
    coarse.regionsPerBlock = 512;
    auto f = simulateMigration(ra.regions->series(),
                               rb.regions->series(), fine);
    auto c = simulateMigration(ra.regions->series(),
                               rb.regions->series(), coarse);
    EXPECT_LE(f.totalPs, c.totalPs);
}

TEST(Interrupts, ReforkCompletesCorrectly)
{
    auto trace = makeBenchmarkTrace("gcc", 3, 30000);
    ContestConfig cfg;
    cfg.interruptPeriodPs = TimePs{3'000'000};  // 3 us
    cfg.interruptHandlerPs = TimePs{200'000};   // 200 ns
    ContestSystem sys({coreConfigByName("twolf"),
                       coreConfigByName("gzip")},
                      trace, cfg);
    auto r = sys.run();
    EXPECT_GT(r.interruptsHandled, 0u);
    EXPECT_EQ(std::max(r.coreStats[0].retired,
                       r.coreStats[1].retired),
              trace->size());
    EXPECT_NEAR(r.leadFraction[0] + r.leadFraction[1], 1.0, 1e-9);
}

TEST(Interrupts, CostPerformance)
{
    auto trace = makeBenchmarkTrace("twolf", 5, 30000);
    auto run_with = [&](TimePs period) {
        ContestConfig cfg;
        cfg.interruptPeriodPs = period;
        cfg.interruptHandlerPs = TimePs{200'000};
        ContestSystem sys({coreConfigByName("twolf"),
                           coreConfigByName("vpr")},
                          trace, cfg);
        return sys.run();
    };
    auto frequent = run_with(TimePs{1'000'000});
    auto none = run_with(TimePs{});
    EXPECT_GT(frequent.interruptsHandled, none.interruptsHandled);
    EXPECT_LT(frequent.ipt, none.ipt);
}

TEST(Interrupts, DeterministicWithRefork)
{
    auto trace = makeBenchmarkTrace("parser", 7, 20000);
    auto run_once = [&]() {
        ContestConfig cfg;
        cfg.interruptPeriodPs = TimePs{2'000'000};
        ContestSystem sys({coreConfigByName("parser"),
                           coreConfigByName("gzip")},
                          trace, cfg);
        return sys.run();
    };
    auto r1 = run_once();
    auto r2 = run_once();
    EXPECT_EQ(r1.timePs, r2.timePs);
    EXPECT_EQ(r1.interruptsHandled, r2.interruptsHandled);
}

TEST(Interrupts, RejectsPeriodShorterThanHandler)
{
    // Re-exec instead of fork: the Runner above started the
    // process-wide thread pool, and forking a threaded process
    // crashes in the child after the expected fatal fires.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto trace = makeBenchmarkTrace("vpr", 9, 2000);
    ContestConfig cfg;
    cfg.interruptPeriodPs = TimePs{100};
    cfg.interruptHandlerPs = TimePs{200};
    EXPECT_EXIT(ContestSystem({coreConfigByName("vpr")}, trace, cfg),
                ::testing::ExitedWithCode(1), "interrupt period");
}

TEST(Interrupts, CoreReforkResetsPipelineState)
{
    // Direct core-level check: refork mid-run, then finish.
    auto trace = makeBenchmarkTrace("gcc", 13, 5000);
    OooCore core(coreConfigByName("twolf"), trace);
    TimePs now{};
    while (core.retired() < 1000) {
        core.tick(now);
        now += core.periodPs();
    }
    core.reforkTo(InstSeq{500});
    EXPECT_EQ(core.retired(), 500u);
    EXPECT_EQ(core.nextFetchSeq(), 500u);
    while (!core.done()) {
        core.tick(now);
        now += core.periodPs();
    }
    EXPECT_EQ(core.retired(), trace->size());
}

} // namespace
} // namespace contest
