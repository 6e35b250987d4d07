/**
 * @file
 * Tests for the work-stealing-free thread pool backing the parallel
 * experiment harness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "common/env.hh"
#include "common/thread_pool.hh"

namespace contest
{
namespace
{

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::vector<std::atomic<unsigned>> hits(1000);
    pool.parallelFor(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, SingleJobRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    // With one job the caller runs everything itself, in index
    // order — parallelFor degenerates to a plain loop.
    std::vector<std::size_t> order;
    pool.parallelFor(8, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, EmptyBatchReturnsImmediately)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // Workers that enter a nested parallelFor drain their own batch
    // instead of blocking on pool availability; with fewer workers
    // than concurrent nested batches this would otherwise hang.
    ThreadPool pool(2);
    std::atomic<unsigned> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) {
            total.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (unsigned round = 0; round < 20; ++round) {
        std::atomic<unsigned> n{0};
        pool.parallelFor(round, [&](std::size_t) { n.fetch_add(1); });
        EXPECT_EQ(n.load(), round);
    }
}

TEST(Env, DefaultJobsHonorsEnvironment)
{
    setenv("CONTEST_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    setenv("CONTEST_JOBS", "0", 1);
    EXPECT_EQ(defaultJobs(), 1u); // clamped to at least one
    unsetenv("CONTEST_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

} // namespace
} // namespace contest
