/**
 * @file
 * Unit tests for the on-disk result cache: key canonicalization,
 * store/load round-trips, corruption and version handling, and the
 * Runner integration that makes a second process start warm.
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

class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path() / "contest_result_cache_test")
                  .string();
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    static SingleRunResult
    sampleResult()
    {
        SingleRunResult r;
        r.timePs = TimePs{123456789};
        r.ipt = 1.875;
        r.stats.cycles = Cycles{1000};
        r.stats.retired = 4000;
        r.stats.mispredicts = 37;
        r.stats.storeQueueStalls = Cycles{12};
        r.energy.pipelineNj = 1.5;
        r.energy.contestNj = 0.25;
        return r;
    }

    std::string dir;
};

TEST(ResultCacheKey, BytesArePinned)
{
    // Every stored entry is found by these exact bytes: a format
    // drift in the key builders would turn the whole cache into
    // misses, so pin one key of each kind in full.
    const std::string gccCore =
        "core=gcc;memlat=186;fed=7;width=4;rob=256;iq=32;wakeup=1;"
        "sched=2;clock=310;l1d=32768/1/8/4/0/1;l2=1024/8/64/6/0/1;"
        "lsq=256;l1dports=2;mshrs=8;bw=16;btbmiss=2;syscall=64;"
        "bpred=3/13/12/10/10;btb=512/4;icache=0;l1i=512/2/64/1/0/1;";
    const std::string twolfCore =
        "core=twolf;memlat=172;fed=6;width=5;rob=512;iq=64;wakeup=1;"
        "sched=2;clock=330;l1d=128/8/64/3/0/1;l2=2048/4/128/12/0/1;"
        "lsq=256;l1dports=3;mshrs=8;bw=16;btbmiss=2;syscall=64;"
        "bpred=3/13/12/10/10;btb=512/4;icache=0;l1i=512/2/64/1/0/1;";
    EXPECT_EQ(ResultCache::singleRunKey(coreConfigByName("gcc"), "gcc",
                                        2009, 40000),
              "bench=gcc;seed=2009;len=40000;" + gccCore);
    EXPECT_EQ(ResultCache::contestKey(
                  "gcc",
                  {coreConfigByName("gcc"), coreConfigByName("twolf")},
                  ContestConfig{}, 2009, 40000),
              "contest;bench=gcc;seed=2009;len=40000;grb=1000;"
              "fifo=8192;sq=4096;inj=0;early=1;park=1;exc=20000;intp=0;"
              "inth=500000;wd=40000000;ncores=2;[0]"
                  + gccCore + "[1]" + twolfCore);
}

TEST_F(ResultCacheTest, KeyIsCanonicalAndConfigSensitive)
{
    const CoreConfig &gcc = coreConfigByName("gcc");
    const CoreConfig &vpr = coreConfigByName("vpr");
    std::string k1 = ResultCache::singleRunKey(gcc, "gcc", 2009, 400000);
    EXPECT_EQ(k1, ResultCache::singleRunKey(gcc, "gcc", 2009, 400000));
    EXPECT_NE(k1, ResultCache::singleRunKey(vpr, "gcc", 2009, 400000));
    EXPECT_NE(k1, ResultCache::singleRunKey(gcc, "vpr", 2009, 400000));
    EXPECT_NE(k1, ResultCache::singleRunKey(gcc, "gcc", 2010, 400000));
    EXPECT_NE(k1, ResultCache::singleRunKey(gcc, "gcc", 2009, 8000));

    // Every microarchitectural field participates: a one-off tweak
    // must change the key.
    CoreConfig tweaked = gcc;
    tweaked.robSize += 1;
    EXPECT_NE(k1,
              ResultCache::singleRunKey(tweaked, "gcc", 2009, 400000));
}

TEST_F(ResultCacheTest, StoreThenLoadRoundTrips)
{
    ResultCache cache(dir);
    SingleRunResult stored = sampleResult();
    std::vector<TimePs> series{TimePs{100}, TimePs{200}, TimePs{50}};
    cache.store("some-key", stored, series);
    EXPECT_EQ(cache.stores(), 1u);

    SingleRunResult loaded;
    std::vector<TimePs> loaded_series;
    ASSERT_TRUE(cache.load("some-key", loaded, loaded_series));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(loaded.timePs, stored.timePs);
    EXPECT_EQ(loaded.ipt, stored.ipt);
    EXPECT_EQ(loaded.stats.cycles, stored.stats.cycles);
    EXPECT_EQ(loaded.stats.retired, stored.stats.retired);
    EXPECT_EQ(loaded.stats.mispredicts, stored.stats.mispredicts);
    EXPECT_EQ(loaded.stats.storeQueueStalls,
              stored.stats.storeQueueStalls);
    EXPECT_EQ(loaded.energy.pipelineNj, stored.energy.pipelineNj);
    EXPECT_EQ(loaded.energy.contestNj, stored.energy.contestNj);
    EXPECT_EQ(loaded_series, series);
}

TEST_F(ResultCacheTest, MissesOnAbsentKey)
{
    ResultCache cache(dir);
    SingleRunResult r;
    std::vector<TimePs> series;
    EXPECT_FALSE(cache.load("never-stored", r, series));
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(ResultCacheTest, VersionBumpInvalidates)
{
    ResultCache v1(dir, 1);
    v1.store("key", sampleResult(), {});

    ResultCache v2(dir, 2);
    SingleRunResult r;
    std::vector<TimePs> series;
    // The version participates in the entry digest, so v2 looks at a
    // different path entirely and must miss.
    EXPECT_NE(v1.entryPath("key"), v2.entryPath("key"));
    EXPECT_FALSE(v2.load("key", r, series));
    // v1 still hits its own entry.
    EXPECT_TRUE(v1.load("key", r, series));
}

TEST_F(ResultCacheTest, RejectsTruncatedOrCorruptEntries)
{
    ResultCache cache(dir);
    std::vector<TimePs> series{TimePs{7}};
    cache.store("key", sampleResult(), series);

    // Truncate the entry to half its size.
    std::string path = cache.entryPath("key");
    auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    SingleRunResult r;
    std::vector<TimePs> out;
    EXPECT_FALSE(cache.load("key", r, out));

    // Garbage of the right rough size is rejected by the magic check.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        std::string junk(static_cast<std::size_t>(size), 'x');
        f.write(junk.data(),
                static_cast<std::streamsize>(junk.size()));
    }
    EXPECT_FALSE(cache.load("key", r, out));
}

TEST_F(ResultCacheTest, CorruptSeriesCountDegradesToMiss)
{
    ResultCache cache(dir);
    const std::vector<TimePs> series{TimePs{1}, TimePs{2}, TimePs{3},
                                     TimePs{4}};
    cache.store("key", sampleResult(), series);
    const std::string path = cache.entryPath("key");
    // The region-series count is the word before the series, which
    // ends the entry; the header before it stays valid.
    const auto countAt = static_cast<std::streamoff>(
        fs::file_size(path) - 8 * (series.size() + 1));

    // Too few records for the file, and counts no file could hold:
    // each must read as a miss, never as an allocation of that size.
    for (std::uint64_t count :
         {std::uint64_t{3}, std::uint64_t{1} << 32,
          (std::uint64_t{1} << 63) - 1}) {
        {
            std::fstream f(path, std::ios::binary | std::ios::in
                                     | std::ios::out);
            f.seekp(countAt);
            for (int i = 0; i < 8; ++i)
                f.put(static_cast<char>((count >> (8 * i)) & 0xff));
        }
        SingleRunResult r;
        std::vector<TimePs> out;
        EXPECT_FALSE(cache.load("key", r, out)) << count;
    }
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST_F(ResultCacheTest, DigestCollisionDegradesToMiss)
{
    ResultCache cache(dir);
    cache.store("key-a", sampleResult(), {});

    // Simulate a filename collision: key-b hashing onto key-a's
    // entry. The stored full key disagrees, so it must miss rather
    // than serve key-a's payload.
    fs::copy_file(cache.entryPath("key-a"), cache.entryPath("key-b"),
                  fs::copy_options::overwrite_existing);
    SingleRunResult r;
    std::vector<TimePs> series;
    EXPECT_FALSE(cache.load("key-b", r, series));
    EXPECT_TRUE(cache.load("key-a", r, series));
}

TEST_F(ResultCacheTest, RunnerWarmStartSkipsSimulation)
{
    ThreadPool pool(1);
    ResultCache cold_cache(dir);
    Runner cold({4000, 11}, &pool);
    cold.setResultCache(&cold_cache);
    const auto &first = cold.single("gcc", "gcc");
    EXPECT_EQ(cold.simulationsPerformed(), 1u);
    EXPECT_EQ(cold.diskHits(), 0u);
    EXPECT_EQ(cold_cache.stores(), 1u);

    // A fresh Runner (a new process, as far as the cache knows) with
    // the same trace parameters starts warm: zero simulations, and
    // the restored result is bit-identical, region series included.
    ResultCache warm_cache(dir);
    Runner warm({4000, 11}, &pool);
    warm.setResultCache(&warm_cache);
    const auto &restored = warm.single("gcc", "gcc");
    EXPECT_EQ(warm.simulationsPerformed(), 0u);
    EXPECT_EQ(warm.diskHits(), 1u);
    EXPECT_EQ(restored.result.timePs, first.result.timePs);
    EXPECT_EQ(restored.result.ipt, first.result.ipt);
    EXPECT_EQ(restored.result.stats.retired,
              first.result.stats.retired);
    EXPECT_EQ(restored.regions->series(), first.regions->series());

    // Different trace parameters must not hit the same entries.
    ResultCache other_cache(dir);
    Runner other({4000, 12}, &pool);
    other.setResultCache(&other_cache);
    other.single("gcc", "gcc");
    EXPECT_EQ(other.simulationsPerformed(), 1u);
    EXPECT_EQ(other.diskHits(), 0u);
}

} // namespace
} // namespace contest
