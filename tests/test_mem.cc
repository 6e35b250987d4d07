/**
 * @file
 * Unit tests for the memory substrate: cache tags/LRU/policies, the
 * two-level hierarchy with its bandwidth model, and the
 * synchronizing store queue.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/sync_store_queue.hh"

namespace contest
{
namespace
{

CacheConfig
tinyCache(unsigned sets, unsigned assoc, unsigned block,
          unsigned latency)
{
    CacheConfig c;
    c.sets = sets;
    c.assoc = assoc;
    c.blockBytes = block;
    c.latency = Cycles{latency};
    return c;
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache(tinyCache(3, 1, 64, 1)),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(Cache(tinyCache(4, 0, 64, 1)),
                ::testing::ExitedWithCode(1), "associativity");
    EXPECT_EXIT(Cache(tinyCache(4, 1, 48, 1)),
                ::testing::ExitedWithCode(1), "block size");
}

TEST(Cache, CapacityBytes)
{
    EXPECT_EQ(tinyCache(1024, 2, 32, 2).capacityBytes(), 64u * 1024u);
}

TEST(Cache, MissThenHitOnSameBlock)
{
    Cache c(tinyCache(4, 1, 64, 1));
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13F, false).hit); // same 64B block
    EXPECT_FALSE(c.access(0x140, false).hit); // next block
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, DirectMappedConflict)
{
    // 4 sets x 64B: addresses 0x000 and 0x100 share set 0.
    Cache c(tinyCache(4, 1, 64, 1));
    c.access(0x000, false);
    c.access(0x100, false); // evicts 0x000
    EXPECT_FALSE(c.access(0x000, false).hit);
}

TEST(Cache, LruKeepsMostRecentlyUsed)
{
    // 1 set x 2 ways: A, B, touch A, insert C -> B evicted.
    Cache c(tinyCache(1, 2, 64, 1));
    c.access(0x000, false); // A
    c.access(0x040, false); // B
    c.access(0x000, false); // touch A
    c.access(0x080, false); // C evicts B
    EXPECT_TRUE(c.access(0x000, false).hit);
    EXPECT_FALSE(c.access(0x040, false).hit);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(tinyCache(4, 1, 64, 1));
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_EQ(c.accesses(), 0u);
    c.access(0x200, false);
    EXPECT_TRUE(c.probe(0x200));
}

TEST(Cache, WriteBackMarksDirtyAndReportsEviction)
{
    Cache c(tinyCache(1, 1, 64, 1));
    c.access(0x000, true); // write-allocate, dirty
    auto r = c.access(0x040, false); // evicts dirty line
    EXPECT_TRUE(r.dirtyEviction);
}

TEST(Cache, WriteThroughNeverDirty)
{
    auto cfg = tinyCache(1, 1, 64, 1);
    cfg.writeThrough = true;
    Cache c(cfg);
    c.access(0x000, true);
    auto r = c.access(0x040, false);
    EXPECT_FALSE(r.dirtyEviction);
}

TEST(Cache, SetWriteThroughClearsDirtyBits)
{
    Cache c(tinyCache(1, 1, 64, 1));
    c.access(0x000, true);
    c.setWriteThrough(true);
    auto r = c.access(0x040, false);
    EXPECT_FALSE(r.dirtyEviction); // dirty bit was flushed
}

TEST(Hierarchy, LatencyAccumulatesAcrossLevels)
{
    DataHierarchy h(tinyCache(4, 1, 64, 2), tinyCache(16, 2, 64, 10),
                    Cycles{100});
    // Cold: L1 miss + L2 miss -> 2 + 10 + 100.
    auto r1 = h.access(0x1000, false, Cycles{0});
    EXPECT_EQ(r1.level, MemLevel::Memory);
    EXPECT_EQ(r1.latency, 112u);
    // Warm L1.
    auto r2 = h.access(0x1000, false, Cycles{0});
    EXPECT_EQ(r2.level, MemLevel::L1);
    EXPECT_EQ(r2.latency, 2u);
    // Conflict out of L1 but still in L2: L1 + L2 latency.
    h.access(0x1100, false, Cycles{0}); // evicts 0x1000 from 4-set L1
    auto r3 = h.access(0x1000, false, Cycles{0});
    EXPECT_EQ(r3.level, MemLevel::L2);
    EXPECT_EQ(r3.latency, 12u);
}

TEST(Hierarchy, BandwidthQueuesConsecutiveFills)
{
    // load gap of 50 cycles between shared-level fills.
    DataHierarchy h(tinyCache(4, 1, 64, 2), tinyCache(16, 2, 64, 10),
                    Cycles{100}, Cycles{50}, Cycles{5});
    auto r1 = h.access(0x10000, false, Cycles{0});
    EXPECT_EQ(r1.latency, 112u); // no queue yet
    auto r2 = h.access(0x20000, false, Cycles{0});
    // Second fill waits for the 50-cycle bus slot.
    EXPECT_EQ(r2.latency, 112u + 50u);
    auto r3 = h.access(0x30000, false, Cycles{200});
    // At cycle 200 the bus (free at 100) is idle again.
    EXPECT_EQ(r3.latency, 112u);
}

TEST(Hierarchy, WriteThroughStorePropagatesToL2)
{
    DataHierarchy h(tinyCache(4, 1, 64, 2), tinyCache(16, 2, 64, 10),
                    Cycles{100});
    h.setWriteThrough(true);
    h.access(0x1000, false, Cycles{0}); // fill both levels
    // Conflict 0x1000 out of L1 only.
    h.access(0x1100, false, Cycles{0});
    // Store hits L1? No - 0x1000 now misses L1, hits L2.
    auto r = h.access(0x1000, true, Cycles{0});
    EXPECT_EQ(r.level, MemLevel::L2);
    // A store that hits L1 updates L2 tags too (stays inclusive).
    h.access(0x2000, false, Cycles{0});
    auto r2 = h.access(0x2000, true, Cycles{0});
    EXPECT_EQ(r2.level, MemLevel::L1);
}

TEST(SyncStoreQueue, MergesAtTheSlowestCore)
{
    SyncStoreQueue q(2, 8);
    q.performStore(0, 0xA0);
    q.performStore(0, 0xB0);
    EXPECT_EQ(q.mergedCount(), 0u); // core 1 has not performed any
    q.performStore(1, 0xA0);
    EXPECT_EQ(q.mergedCount(), 1u);
    q.performStore(1, 0xB0);
    EXPECT_EQ(q.mergedCount(), 2u);
}

TEST(SyncStoreQueue, BackpressuresTheLeader)
{
    SyncStoreQueue q(2, 2);
    q.performStore(0, 0x10);
    q.performStore(0, 0x20);
    EXPECT_FALSE(q.canAccept(0)); // 2 un-merged stores buffered
    EXPECT_TRUE(q.canAccept(1));
    q.performStore(1, 0x10); // merges store 0
    EXPECT_TRUE(q.canAccept(0));
}

TEST(SyncStoreQueue, DivergentStreamsPanic)
{
    SyncStoreQueue q(2, 8);
    q.performStore(0, 0x10);
    EXPECT_DEATH(q.performStore(1, 0x999), "diverge");
}

TEST(SyncStoreQueue, DropCoreUnblocksMerging)
{
    SyncStoreQueue q(2, 8);
    q.performStore(0, 0x10);
    q.performStore(0, 0x20);
    EXPECT_EQ(q.mergedCount(), 0u);
    q.dropCore(1); // saturated lagger leaves
    EXPECT_EQ(q.mergedCount(), 2u);
}

TEST(SyncStoreQueue, InactiveCoreCanAcceptPanics)
{
    SyncStoreQueue q(2, 2);
    q.performStore(0, 0x10);
    q.performStore(0, 0x20);
    q.dropCore(1);
    // The merge frontier advanced past the dropped core's performed
    // count; an unsigned performed[1] - numMerged would wrap and
    // report the queue full of room. Inactive cores must not be
    // queried at all.
    EXPECT_EQ(q.mergedCount(), 2u);
    EXPECT_DEATH(q.canAccept(1), "inactive core");
    EXPECT_TRUE(q.canAccept(0));
}

TEST(SyncStoreQueue, RejectsBadConstruction)
{
    EXPECT_EXIT(SyncStoreQueue(0, 4), ::testing::ExitedWithCode(1),
                "at least one core");
    EXPECT_EXIT(SyncStoreQueue(2, 0), ::testing::ExitedWithCode(1),
                "capacity");
}

} // namespace
} // namespace contest
