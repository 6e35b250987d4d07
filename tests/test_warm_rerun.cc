/**
 * @file
 * A warm rerun simulates nothing. Ablations G and H request the
 * suite's least ordinary runs — I-cache variants of palette cores,
 * contests between them, and single and contested runs on a shorter
 * exploration trace — so they run here through the registry twice
 * over one result-cache directory: the second run, on a fresh
 * Runner, must load every result and write byte-identical artifacts.
 * The bench sources of both experiments are compiled into this test.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/ooo_core.hh"
#include "core/palette.hh"
#include "harness/registry.hh"
#include "harness/result_cache.hh"
#include "harness/runner.hh"

namespace contest
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kTraceLen = 4000;
constexpr std::uint64_t kSeed = 2009;

/** What one pass over the two ablations did, and what it wrote. */
struct Pass
{
    std::uint64_t singles = 0;
    std::uint64_t contests = 0;
    std::uint64_t singleDiskHits = 0;
    std::uint64_t contestDiskHits = 0;
    /** OooCores the pass built, inside the Runner or not. */
    std::uint64_t coresBuilt = 0;
    /** Artifact file name -> bytes. */
    std::map<std::string, std::string> artifacts;
};

class WarmRerunTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() / "contest_warm_rerun_test";
        fs::remove_all(dir);
        setenv("CONTEST_FAST", "1", 1);
    }

    void
    TearDown() override
    {
        unsetenv("CONTEST_FAST");
        fs::remove_all(dir);
    }

    /** Run both ablations on a fresh Runner over dir/cache, writing
     *  their artifacts to dir/@p out. */
    Pass
    runAblations(const std::string &out) const
    {
        const std::uint64_t coresBefore = OooCore::instancesBuilt();
        Runner runner(kTraceLen, kSeed);
        ResultCache cache((dir / "cache").string());
        runner.setResultCache(&cache);
        ArtifactSink sink((dir / out).string(), /*echo=*/false);
        for (const char *name : {"abl_icache", "abl_contest_aware"}) {
            const ExperimentInfo *info =
                ExperimentRegistry::instance().find(name);
            if (info == nullptr) {
                ADD_FAILURE() << name << " is not registered";
                continue;
            }
            ExperimentContext ctx{runner, sink, *info};
            info->fn(ctx);
        }

        Pass pass;
        pass.coresBuilt = OooCore::instancesBuilt() - coresBefore;
        pass.singles = runner.simulationsPerformed();
        pass.contests = runner.contestsPerformed();
        pass.singleDiskHits = runner.diskHits();
        pass.contestDiskHits = runner.contestDiskHits();
        for (const std::string &path : sink.writtenFiles()) {
            std::ifstream in(path, std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            pass.artifacts[fs::path(path).filename().string()] =
                bytes.str();
        }
        return pass;
    }

    fs::path dir;
};

TEST_F(WarmRerunTest, AblationsGAndHSimulateNothingWarm)
{
    const Pass cold = runAblations("cold");
    EXPECT_GT(cold.singles, 0u);
    EXPECT_GT(cold.contests, 0u);
    EXPECT_EQ(cold.singleDiskHits, 0u);
    EXPECT_EQ(cold.artifacts.size(), 2u);

    const Pass warm = runAblations("warm");
    EXPECT_EQ(warm.singles, 0u);
    EXPECT_EQ(warm.contests, 0u);
    // The Runner counts only its own simulations; a core built
    // anywhere else would be a simulation the cache never saw.
    EXPECT_EQ(warm.coresBuilt, 0u);
    // Every run the cold pass simulated, and nothing else, loads.
    EXPECT_EQ(warm.singleDiskHits, cold.singles);
    EXPECT_EQ(warm.contestDiskHits, cold.contests);
    EXPECT_EQ(warm.artifacts, cold.artifacts);
}

TEST_F(WarmRerunTest, NameAndConfigShareOneSingleAndVariantsKeyApart)
{
    Runner runner(kTraceLen, kSeed);
    bool materialized = false;
    const LoggedRun &byName = runner.single("gzip", "gcc");
    const LoggedRun &byConfig = runner.single(
        "gzip", coreConfigByName("gcc"), kTraceLen, &materialized);
    EXPECT_EQ(&byName, &byConfig);
    EXPECT_FALSE(materialized);
    EXPECT_EQ(runner.simulationsPerformed(), 1u);

    CoreConfig icache = coreConfigByName("gcc");
    icache.name = "gcc-ic";
    icache.modelICache = true;
    const LoggedRun &variant =
        runner.single("gzip", icache, 0, &materialized);
    EXPECT_NE(&variant, &byName);
    EXPECT_TRUE(materialized);
    EXPECT_EQ(runner.simulationsPerformed(), 2u);
    EXPECT_GT(variant.result.stats.icacheMisses, 0u);
    EXPECT_EQ(byName.result.stats.icacheMisses, 0u);

    // A shorter trace is a different run too.
    runner.single("gzip", coreConfigByName("gcc"), kTraceLen / 2);
    EXPECT_EQ(runner.simulationsPerformed(), 3u);
}

} // namespace
} // namespace contest
