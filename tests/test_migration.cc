/**
 * @file
 * Unit tests for the migrational-baseline evaluator, including the
 * free oracle that Figure 1 and the best-pair search rank pairs by.
 */

#include <gtest/gtest.h>

#include "harness/migration.hh"
#include "harness/runner.hh"

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

/** Free oracle switching at @p regions_per_block regions. */
TimePs
freeOracle(const std::vector<TimePs> &a, const std::vector<TimePs> &b,
           std::uint64_t regions_per_block)
{
    return simulateMigration(
               a, b, {regions_per_block, TimePs{}, MigrationPolicy::Oracle})
        .totalPs;
}

TEST(Migration, FreeOraclePicksTheFasterSeriesPerBlock)
{
    // Config A is fast in even regions, B in odd regions.
    std::vector<TimePs> a{TimePs{10}, TimePs{100}, TimePs{10}, TimePs{100}};
    std::vector<TimePs> b{TimePs{100}, TimePs{10}, TimePs{100}, TimePs{10}};
    // Granularity 1 region: the oracle gets 10 everywhere.
    EXPECT_EQ(freeOracle(a, b, 1), 40u);
    // Granularity 2 regions: each block is 110 on both.
    EXPECT_EQ(freeOracle(a, b, 2), 220u);
    // Whole-run granularity: min(220, 220).
    EXPECT_EQ(freeOracle(a, b, 4), 220u);
}

TEST(Migration, FreeOracleHandlesUnequalLengths)
{
    std::vector<TimePs> a{TimePs{10}, TimePs{10}, TimePs{10}};
    std::vector<TimePs> b{TimePs{5}, TimePs{5}};
    EXPECT_EQ(freeOracle(a, b, 1), 10u);
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

} // namespace
} // namespace contest
