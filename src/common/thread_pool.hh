/**
 * @file
 * A small, deterministic-friendly thread pool for independent
 * simulation runs.
 *
 * The pool is deliberately work-stealing-free: parallelFor() posts a
 * single shared batch whose indices are claimed from one atomic
 * counter, so scheduling is simple and the order in which indices are
 * *claimed* is irrelevant — each index writes only its own output
 * slot, which is what keeps parallel sweeps bit-identical to serial
 * ones.
 *
 * The calling thread participates in its own batch. This makes
 * nested parallelFor() calls deadlock-free: a worker that enters a
 * nested parallelFor() drains that nested batch itself instead of
 * blocking on a pool that may be fully occupied.
 */

#ifndef CONTEST_COMMON_THREAD_POOL_HH
#define CONTEST_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace contest
{

/** Fixed-size pool executing indexed batches of independent tasks. */
class ThreadPool
{
  public:
    /**
     * @param jobs total concurrency, including the calling thread:
     *        jobs-1 worker threads are spawned; jobs <= 1 means every
     *        parallelFor() runs inline, serially.
     */
    explicit ThreadPool(unsigned jobs);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (worker threads + the calling thread). */
    unsigned jobs() const
    {
        return static_cast<unsigned>(threads.size()) + 1;
    }

    /**
     * Run fn(0) .. fn(n-1), each exactly once, and return when all
     * have completed. The caller executes tasks too. fn must be safe
     * to call concurrently from multiple threads and must not throw.
     * Safe to call from inside a task (nested parallelism).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Queue one task and return immediately (fire-and-forget; the
     * pool owns the function). Completion is the task's own business
     * — signal it from inside the task if anyone needs to know. With
     * no worker threads the task simply waits in the queue for a
     * tryRunOneTask() caller.
     */
    void post(std::function<void()> fn);

    /**
     * Claim and run one queued task on the calling thread, if any is
     * immediately available. Returns false without blocking when the
     * queue is idle. This is how a thread that is otherwise waiting
     * (e.g. the suite driver draining results in order) donates
     * itself to the pool instead of sleeping.
     */
    bool tryRunOneTask();

    /**
     * The process-wide pool, sized from CONTEST_JOBS on first use.
     * Only perfbench/probe.cc still runs on it.
     */
    static ThreadPool &global();

  private:
    struct Batch;

    /** Claim and run tasks from @p batch until it is exhausted. */
    static void runBatchTasks(Batch &batch);
    void workerLoop();

    std::mutex mu;
    std::condition_variable cv;
    /** Batches with unclaimed indices, oldest first. */
    std::deque<std::shared_ptr<Batch>> pending;
    bool stopping = false;
    std::vector<std::thread> threads;
};

} // namespace contest

#endif // CONTEST_COMMON_THREAD_POOL_HH
