/**
 * @file
 * Unit tests for the contested-run side of the on-disk result cache:
 * key canonicalization over (benchmark, ordered cores, contest
 * config, seed, trace length), store/load round-trips, corruption
 * and version handling, kind separation from single-run entries, and
 * the Runner integration that makes a second process rerun a
 * contested suite without simulating.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/palette.hh"
#include "harness/result_cache.hh"
#include "harness/runner.hh"

namespace contest
{
namespace
{

namespace fs = std::filesystem;

class ContestCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path()
               / "contest_contest_cache_test")
                  .string();
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    static std::vector<CoreConfig>
    gccTwolf()
    {
        return {coreConfigByName("gcc"), coreConfigByName("twolf")};
    }

    static ContestResult
    sampleResult()
    {
        ContestResult r;
        r.timePs = TimePs{987654321};
        r.ipt = 2.125;
        r.coreStats.resize(2);
        r.coreStats[0].cycles = Cycles{4000};
        r.coreStats[0].retired = 16000;
        r.coreStats[1].cycles = Cycles{5000};
        r.coreStats[1].mispredicts = 41;
        r.unitStats.resize(2);
        r.unitStats[0].paired = 1200;
        r.unitStats[0].broadcasts = 900;
        r.unitStats[1].discarded = 7;
        r.unitStats[1].saturated = true;
        r.unitStats[1].parkedAt = TimePs{5555};
        r.leadFraction = {0.75, 0.25};
        r.leadChanges = 13;
        r.mergedStores = StoreSeq{4321};
        r.exceptionsHandled = 3;
        r.interruptsHandled = 2;
        r.energy.resize(2);
        r.energy[0].pipelineNj = 2.5;
        r.energy[1].contestNj = 0.75;
        return r;
    }

    std::string dir;
};

TEST_F(ContestCacheTest, KeyIsCanonicalAndConfigSensitive)
{
    auto cores = gccTwolf();
    ContestConfig cfg;
    std::string k1 =
        ResultCache::contestKey("gcc", cores, cfg, 2009, 400000);
    EXPECT_EQ(k1,
              ResultCache::contestKey("gcc", cores, cfg, 2009,
                                      400000));
    EXPECT_NE(k1, ResultCache::contestKey("vpr", cores, cfg, 2009,
                                          400000));
    EXPECT_NE(k1, ResultCache::contestKey("gcc", cores, cfg, 2010,
                                          400000));
    EXPECT_NE(k1,
              ResultCache::contestKey("gcc", cores, cfg, 2009, 8000));

    // The cores are ordered: swapping them is a different system.
    std::vector<CoreConfig> swapped{cores[1], cores[0]};
    EXPECT_NE(k1, ResultCache::contestKey("gcc", swapped, cfg, 2009,
                                          400000));

    // Every core-config field participates.
    auto tweaked_cores = cores;
    tweaked_cores[1].robSize += 1;
    EXPECT_NE(k1, ResultCache::contestKey("gcc", tweaked_cores, cfg,
                                          2009, 400000));

    // So does every contesting knob.
    ContestConfig grb = cfg;
    grb.grbLatencyPs = TimePs{grb.grbLatencyPs.count() + 100};
    EXPECT_NE(k1, ResultCache::contestKey("gcc", cores, grb, 2009,
                                          400000));
    ContestConfig fifo = cfg;
    fifo.fifoCapacity /= 2;
    EXPECT_NE(k1, ResultCache::contestKey("gcc", cores, fifo, 2009,
                                          400000));
    ContestConfig park = cfg;
    park.parkSaturatedLaggers = !park.parkSaturatedLaggers;
    EXPECT_NE(k1, ResultCache::contestKey("gcc", cores, park, 2009,
                                          400000));

    // The single-run key of the same benchmark must never alias a
    // contest key.
    EXPECT_NE(k1, ResultCache::singleRunKey(cores[0], "gcc", 2009,
                                            400000));
}

TEST_F(ContestCacheTest, StoreThenLoadRoundTrips)
{
    ResultCache cache(dir);
    ContestResult stored = sampleResult();
    cache.storeContest("contest-key", stored);
    EXPECT_EQ(cache.stores(), 1u);

    ContestResult loaded;
    ASSERT_TRUE(cache.loadContest("contest-key", loaded));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(loaded.timePs, stored.timePs);
    EXPECT_EQ(loaded.ipt, stored.ipt);
    ASSERT_EQ(loaded.coreStats.size(), 2u);
    EXPECT_EQ(loaded.coreStats[0].cycles, stored.coreStats[0].cycles);
    EXPECT_EQ(loaded.coreStats[0].retired,
              stored.coreStats[0].retired);
    EXPECT_EQ(loaded.coreStats[1].mispredicts,
              stored.coreStats[1].mispredicts);
    ASSERT_EQ(loaded.unitStats.size(), 2u);
    EXPECT_EQ(loaded.unitStats[0].paired, stored.unitStats[0].paired);
    EXPECT_EQ(loaded.unitStats[0].broadcasts,
              stored.unitStats[0].broadcasts);
    EXPECT_EQ(loaded.unitStats[1].discarded,
              stored.unitStats[1].discarded);
    EXPECT_EQ(loaded.unitStats[1].saturated,
              stored.unitStats[1].saturated);
    EXPECT_EQ(loaded.unitStats[1].parkedAt,
              stored.unitStats[1].parkedAt);
    EXPECT_EQ(loaded.leadFraction, stored.leadFraction);
    EXPECT_EQ(loaded.leadChanges, stored.leadChanges);
    EXPECT_EQ(loaded.mergedStores, stored.mergedStores);
    EXPECT_EQ(loaded.exceptionsHandled, stored.exceptionsHandled);
    EXPECT_EQ(loaded.interruptsHandled, stored.interruptsHandled);
    ASSERT_EQ(loaded.energy.size(), 2u);
    EXPECT_EQ(loaded.energy[0].pipelineNj, stored.energy[0].pipelineNj);
    EXPECT_EQ(loaded.energy[1].contestNj, stored.energy[1].contestNj);
}

TEST_F(ContestCacheTest, MissesOnAbsentKey)
{
    ResultCache cache(dir);
    ContestResult r;
    EXPECT_FALSE(cache.loadContest("never-stored", r));
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(ContestCacheTest, VersionBumpInvalidates)
{
    ResultCache v1(dir, 1);
    v1.storeContest("key", sampleResult());

    ResultCache v2(dir, 2);
    ContestResult r;
    // The version participates in the entry digest, so v2 looks at a
    // different path entirely and must miss.
    EXPECT_NE(v1.entryPath("key"), v2.entryPath("key"));
    EXPECT_FALSE(v2.loadContest("key", r));
    // v1 still hits its own entry.
    EXPECT_TRUE(v1.loadContest("key", r));
}

TEST_F(ContestCacheTest, RejectsTruncatedOrCorruptEntries)
{
    ResultCache cache(dir);
    cache.storeContest("key", sampleResult());

    // Truncate the entry to half its size.
    std::string path = cache.entryPath("key");
    auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    ContestResult r;
    EXPECT_FALSE(cache.loadContest("key", r));

    // Garbage of the right rough size is rejected by the magic check.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        std::string junk(static_cast<std::size_t>(size), 'x');
        f.write(junk.data(),
                static_cast<std::streamsize>(junk.size()));
    }
    EXPECT_FALSE(cache.loadContest("key", r));
}

TEST_F(ContestCacheTest, OneByteTruncationDegradesToMiss)
{
    // The nastiest torn write loses only the final byte — the magic,
    // version, and almost the whole payload still read back clean,
    // so only end-to-end length/checksum validation catches it.
    ResultCache cache(dir);
    cache.storeContest("key", sampleResult());

    std::string path = cache.entryPath("key");
    auto size = fs::file_size(path);
    ASSERT_GT(size, 1u);
    fs::resize_file(path, size - 1);

    ContestResult r;
    EXPECT_FALSE(cache.loadContest("key", r));

    // A rewrite repairs the entry in place.
    cache.storeContest("key", sampleResult());
    EXPECT_TRUE(cache.loadContest("key", r));
}

TEST_F(ContestCacheTest, StoresLeaveNoTempFilesBehind)
{
    // Entries are written to a side file and renamed into place so a
    // concurrent reader never sees a half-written entry; a completed
    // store must leave only final entries in the directory.
    ResultCache cache(dir);
    cache.store("single-key", SingleRunResult{}, {});
    cache.storeContest("contest-key", sampleResult());

    for (const auto &ent : fs::directory_iterator(dir)) {
        const std::string name = ent.path().filename().string();
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
}

TEST_F(ContestCacheTest, SingleAndContestEntriesCannotCrossLoad)
{
    // The two entry kinds carry distinct magics: even if a single-run
    // entry ends up at the path a contest load probes (here forced by
    // using the same key string), it degrades to a miss instead of
    // deserializing garbage — and vice versa.
    ResultCache cache(dir);
    cache.store("shared-key", SingleRunResult{}, {});
    ContestResult contested;
    EXPECT_FALSE(cache.loadContest("shared-key", contested));

    fs::remove(cache.entryPath("shared-key"));
    cache.storeContest("shared-key", sampleResult());
    SingleRunResult single;
    std::vector<TimePs> series;
    EXPECT_FALSE(cache.load("shared-key", single, series));
}

TEST_F(ContestCacheTest, DigestCollisionDegradesToMiss)
{
    ResultCache cache(dir);
    cache.storeContest("key-a", sampleResult());

    // Simulate a filename collision: key-b hashing onto key-a's
    // entry. The stored full key disagrees, so it must miss rather
    // than serve key-a's payload.
    fs::copy_file(cache.entryPath("key-a"), cache.entryPath("key-b"),
                  fs::copy_options::overwrite_existing);
    ContestResult r;
    EXPECT_FALSE(cache.loadContest("key-b", r));
    EXPECT_TRUE(cache.loadContest("key-a", r));
}

TEST_F(ContestCacheTest, RunnerWarmRerunSkipsContestSimulation)
{
    ThreadPool pool(1);
    ResultCache cold_cache(dir);
    Runner cold({4000, 11}, &pool);
    cold.setResultCache(&cold_cache);
    const ContestResult &first =
        cold.contestedPair("gcc", "gcc", "twolf");
    EXPECT_EQ(cold.contestsPerformed(), 1u);
    EXPECT_EQ(cold.contestDiskHits(), 0u);
    EXPECT_EQ(cold_cache.stores(), 1u);

    // The in-memory memo serves a repeat without touching the disk.
    cold.contestedPair("gcc", "gcc", "twolf");
    EXPECT_EQ(cold.contestsPerformed(), 1u);
    EXPECT_EQ(cold_cache.hits(), 0u);

    // A fresh Runner (a new process, as far as the cache knows) with
    // the same parameters starts warm: zero contested simulations,
    // and the restored result is bit-identical.
    ResultCache warm_cache(dir);
    Runner warm({4000, 11}, &pool);
    warm.setResultCache(&warm_cache);
    const ContestResult &restored =
        warm.contestedPair("gcc", "gcc", "twolf");
    EXPECT_EQ(warm.contestsPerformed(), 0u);
    EXPECT_EQ(warm.contestDiskHits(), 1u);
    EXPECT_EQ(restored.timePs, first.timePs);
    EXPECT_EQ(restored.ipt, first.ipt);
    ASSERT_EQ(restored.coreStats.size(), first.coreStats.size());
    for (std::size_t c = 0; c < first.coreStats.size(); ++c) {
        EXPECT_EQ(restored.coreStats[c].cycles,
                  first.coreStats[c].cycles);
        EXPECT_EQ(restored.coreStats[c].retired,
                  first.coreStats[c].retired);
    }
    EXPECT_EQ(restored.leadFraction, first.leadFraction);
    EXPECT_EQ(restored.mergedStores, first.mergedStores);

    // Different seed, different entries: back to simulating.
    ResultCache other_cache(dir);
    Runner other({4000, 12}, &pool);
    other.setResultCache(&other_cache);
    other.contestedPair("gcc", "gcc", "twolf");
    EXPECT_EQ(other.contestsPerformed(), 1u);
    EXPECT_EQ(other.contestDiskHits(), 0u);

    // A trace-length override is part of the key too.
    ResultCache short_cache(dir);
    Runner short_runner({4000, 11}, &pool);
    short_runner.setResultCache(&short_cache);
    short_runner.contested("gcc", gccTwolf(), ContestConfig{}, 2000);
    EXPECT_EQ(short_runner.contestsPerformed(), 1u);
    EXPECT_EQ(short_runner.contestDiskHits(), 0u);
}

} // namespace
} // namespace contest
