/**
 * @file
 * Unit tests for the branch prediction substrate.
 */

#include <gtest/gtest.h>

#include "bpred/bpred.hh"

namespace contest
{
namespace
{

TEST(PackedSatCounters, SaturatesBothWays)
{
    // 40 counters span two words; counter 33 sits in the second.
    PackedSatCounters c;
    c.assign(40, 0);
    const std::size_t i = 33;
    EXPECT_FALSE(c.taken(i));
    c.train(i, false);
    EXPECT_EQ(c.raw(i), 0);
    c.train(i, true);
    c.train(i, true);
    EXPECT_TRUE(c.taken(i));
    c.train(i, true);
    c.train(i, true);
    EXPECT_EQ(c.raw(i), 3);
    c.train(i, false);
    EXPECT_EQ(c.raw(i), 2);
    EXPECT_TRUE(c.taken(i));
    // Training one counter leaves its packed neighbours alone.
    EXPECT_EQ(c.raw(i - 1), 0);
    EXPECT_EQ(c.raw(i + 1), 0);
    EXPECT_EQ(c.raw(31), 0);
}

TEST(Tournament, LearnsStrongBias)
{
    BranchPredictor bp(BPredConfig{});
    for (int i = 0; i < 1000; ++i)
        bp.predictAndTrain(0x400000, true);
    // After warmup, an always-taken branch is always predicted.
    std::uint64_t before = bp.mispredicts();
    for (int i = 0; i < 100; ++i)
        bp.predictAndTrain(0x400000, true);
    EXPECT_EQ(bp.mispredicts(), before);
}

TEST(Tournament, LearnsAlternation)
{
    // T,N,T,N drives a lone 2-bit counter to ~50% mispredictions;
    // the history-indexed components learn it exactly.
    BranchPredictor bp(BPredConfig{});
    for (int i = 0; i < 4000; ++i)
        bp.predictAndTrain(0x400000, i % 2 == 0);
    std::uint64_t before = bp.mispredicts();
    for (int i = 0; i < 200; ++i)
        bp.predictAndTrain(0x400000, i % 2 == 0);
    EXPECT_EQ(bp.mispredicts(), before);
}

TEST(Tournament, LearnsLoopPeriodDespiteGlobalNoise)
{
    BranchPredictor bp(BPredConfig{});
    // A loop branch with period 5 (T,T,T,T,N) interleaved with a
    // 50/50 noise branch that would wreck any global history: the
    // local component and the choice table must carry it.
    std::uint64_t noise_state = 12345;
    for (int i = 0; i < 6000; ++i) {
        bp.predictAndTrain(0x400000, (i % 5) != 4);
        noise_state = noise_state * 6364136223846793005ULL + 1;
        bp.predictAndTrain(0x500000, (noise_state >> 62) & 1);
    }
    // Count only the loop branch's behaviour from here.
    std::uint64_t miss_before = bp.mispredicts();
    LookupCount look_before = bp.lookups();
    for (int i = 0; i < 500; ++i)
        bp.predictAndTrain(0x400000, (i % 5) != 4);
    double rate =
        static_cast<double>(bp.mispredicts() - miss_before)
        / static_cast<double>((bp.lookups() - look_before).count());
    EXPECT_LT(rate, 0.02);
}

TEST(Tournament, StaysAccurateOnMixedStream)
{
    BranchPredictor bp(BPredConfig{});
    std::uint64_t state = 777;
    for (int i = 0; i < 20000; ++i) {
        bp.predictAndTrain(0x10, (i % 3) != 2);   // loop period 3
        bp.predictAndTrain(0x20, true);           // biased
        state = state * 6364136223846793005ULL + 1;
        bp.predictAndTrain(0x30, (state >> 62) & 1); // random
    }
    // Random branch caps us near 1/3 * 1/2; the other two should be
    // nearly free.
    EXPECT_LT(bp.mispredictRate(), 0.22);
}

TEST(Predictor, CountsLookups)
{
    BranchPredictor bp(BPredConfig{});
    for (int i = 0; i < 50; ++i)
        bp.predictAndTrain(0x40, true);
    EXPECT_EQ(bp.lookups(), 50u);
    EXPECT_LE(bp.mispredicts(), 50u);
}

TEST(Btb, LearnsTargetsAndReportsHits)
{
    Btb btb(BtbConfig{16, 2});
    EXPECT_FALSE(btb.lookupAndTrain(0x1000, 0x2000)); // cold miss
    EXPECT_TRUE(btb.lookupAndTrain(0x1000, 0x2000));  // now hits
    // Target change is a miss once, then learned.
    EXPECT_FALSE(btb.lookupAndTrain(0x1000, 0x3000));
    EXPECT_TRUE(btb.lookupAndTrain(0x1000, 0x3000));
    EXPECT_EQ(btb.lookups(), 4u);
    EXPECT_EQ(btb.hits(), 2u);
}

TEST(Btb, LruEvictionWithinSet)
{
    // Direct-mapped 1-set x 2-way BTB: three branches mapping to the
    // same set evict the least recently used.
    Btb btb(BtbConfig{1, 2});
    btb.lookupAndTrain(0x10, 0xA); // fills way 0
    btb.lookupAndTrain(0x20, 0xB); // fills way 1
    btb.lookupAndTrain(0x30, 0xC); // evicts 0x10
    EXPECT_TRUE(btb.lookupAndTrain(0x20, 0xB));
    EXPECT_TRUE(btb.lookupAndTrain(0x30, 0xC));
    EXPECT_FALSE(btb.lookupAndTrain(0x10, 0xA)); // was evicted
}

TEST(Btb, RejectsBadGeometry)
{
    EXPECT_EXIT(Btb(BtbConfig{3, 2}), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(Btb(BtbConfig{4, 0}), ::testing::ExitedWithCode(1),
                "associativity");
}

} // namespace
} // namespace contest
