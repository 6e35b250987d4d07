#include "harness/migration.hh"

#include <algorithm>

#include "common/log.hh"

namespace contest
{

MigrationResult
simulateMigration(const std::vector<TimePs> &a,
                  const std::vector<TimePs> &b,
                  const MigrationConfig &config)
{
    fatal_if(config.regionsPerBlock == 0,
             "simulateMigration: zero block size");
    const std::size_t n = std::min(a.size(), b.size());
    const bool history = config.policy == MigrationPolicy::History;

    MigrationResult result;
    std::uint64_t blocks_on_a = 0;
    std::uint64_t blocks = 0;

    // The oracle runs each block on its faster core, and the first
    // block's pick costs no migration. History runs each block on
    // the previous block's winner, and the first (no past yet) on A.
    bool on_b = false;
    bool a_won_last = true;
    for (std::size_t start = 0; start < n;
         start += config.regionsPerBlock) {
        const std::size_t end =
            std::min(n, start + config.regionsPerBlock);
        TimePs block[2]{};
        for (std::size_t i = start; i < end; ++i) {
            block[0] += a[i];
            block[1] += b[i];
        }
        const bool a_wins = block[0] <= block[1];
        const bool want_b = history ? !a_won_last : !a_wins;
        // Count and index, never branch on the pick: at fine
        // granularity the winner flips unpredictably, and Figure 1
        // and the best-pair search run the free oracle on every
        // pair.
        result.migrations += blocks != 0 && want_b != on_b;
        result.totalPs += block[want_b];
        blocks_on_a += !want_b;
        ++blocks;
        on_b = want_b;
        a_won_last = a_wins;
    }
    // Every migration pays the same penalty.
    result.totalPs += config.migrationPenaltyPs * result.migrations;

    result.shareA = blocks
        ? static_cast<double>(blocks_on_a)
            / static_cast<double>(blocks)
        : 0.0;
    return result;
}

} // namespace contest
