#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>

#include "common/env.hh"

namespace contest
{

/** One parallelFor() invocation: an atomic index dispenser plus a
 *  completion latch. */
struct ThreadPool::Batch
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *fn = nullptr;
    std::atomic<std::size_t> next{0};

    std::mutex m;
    std::condition_variable doneCv;
    std::size_t done = 0; //!< tasks finished (guarded by m)

    /** Storage behind fn for post()ed tasks, which outlive their
     *  caller's stack frame. */
    std::function<void(std::size_t)> owned;
};

ThreadPool::ThreadPool(unsigned jobs_total)
{
    unsigned workers = jobs_total > 1 ? jobs_total - 1 : 0;
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cv.notify_all();
    for (auto &t : threads)
        t.join();
}

void
ThreadPool::runBatchTasks(Batch &batch)
{
    for (;;) {
        std::size_t i =
            batch.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.n)
            return;
        (*batch.fn)(i);
        std::lock_guard<std::mutex> lock(batch.m);
        if (++batch.done == batch.n)
            batch.doneCv.notify_all();
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock,
                    [this] { return stopping || !pending.empty(); });
            if (pending.empty()) {
                if (stopping)
                    return;
                continue;
            }
            batch = pending.front();
            if (batch->next.load(std::memory_order_relaxed)
                >= batch->n) {
                // Exhausted batch still queued: retire it and look
                // for more work.
                pending.pop_front();
                continue;
            }
        }
        runBatchTasks(*batch);
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (threads.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;
    {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(batch);
    }
    cv.notify_all();

    // The caller works on its own batch, so nested calls cannot
    // deadlock even when every worker is busy elsewhere.
    runBatchTasks(*batch);

    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = std::find(pending.begin(), pending.end(), batch);
        if (it != pending.end())
            pending.erase(it);
    }
    std::unique_lock<std::mutex> lock(batch->m);
    batch->doneCv.wait(lock,
                       [&] { return batch->done == batch->n; });
}

void
ThreadPool::post(std::function<void()> fn)
{
    auto batch = std::make_shared<Batch>();
    batch->n = 1;
    batch->owned = [f = std::move(fn)](std::size_t) { f(); };
    batch->fn = &batch->owned;
    {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(batch);
    }
    cv.notify_one();
}

bool
ThreadPool::tryRunOneTask()
{
    std::shared_ptr<Batch> batch;
    std::size_t i = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        while (!pending.empty()) {
            batch = pending.front();
            i = batch->next.fetch_add(1, std::memory_order_relaxed);
            if (i < batch->n)
                break;
            pending.pop_front();
            batch.reset();
        }
    }
    if (!batch)
        return false;
    (*batch->fn)(i);
    std::lock_guard<std::mutex> lock(batch->m);
    if (++batch->done == batch->n)
        batch->doneCv.notify_all();
    return true;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(RunSettings::fromEnvironment().jobs);
    return pool;
}

} // namespace contest
