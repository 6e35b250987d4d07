#include "harness/scheduler.hh"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace contest
{

namespace
{

/** One posted experiment: its private artifact buffer and completion
 *  state (done/sec guarded by the scheduler's mutex). */
struct Slot
{
    const ExperimentInfo *info = nullptr;
    ArtifactSink buffer{"", false};
    double sec = 0.0;
    bool done = false;
};

} // namespace

void
SuiteScheduler::run(const std::vector<const ExperimentInfo *> &to_run,
                    const DrainFn &on_drained)
{
    using Clock = std::chrono::steady_clock;

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::unique_ptr<Slot>> slots;
    slots.reserve(to_run.size());
    for (const ExperimentInfo *e : to_run) {
        slots.push_back(std::make_unique<Slot>());
        slots.back()->info = e;
    }

    // Submit everything up front; experiment bodies overlap from the
    // start instead of serializing on experiment boundaries.
    for (auto &slot_ptr : slots) {
        Slot *slot = slot_ptr.get();
        pool_.post([this, slot, &mu, &cv] {
            auto body_start = Clock::now();
            ExperimentContext ctx{runner_, slot->buffer, *slot->info};
            slot->info->fn(ctx);
            double sec = std::chrono::duration<double>(Clock::now()
                                                       - body_start)
                             .count();
            std::lock_guard<std::mutex> lock(mu);
            slot->sec = sec;
            slot->done = true;
            // Notify before unlocking: run()'s locals (mu, cv) may
            // be destroyed as soon as the last unlock happens.
            cv.notify_all();
        });
    }

    // Drain strictly in submission order; re-emitting through the
    // real sink gives a sequential loop's stdout and JSON output byte
    // for byte, whatever order the bodies finished in.
    std::size_t next_drain = 0;
    while (next_drain < slots.size()) {
        bool head_done;
        double head_sec = 0.0;
        {
            std::lock_guard<std::mutex> lock(mu);
            head_done = slots[next_drain]->done;
            if (head_done)
                head_sec = slots[next_drain]->sec;
        }
        if (head_done) {
            Slot &slot = *slots[next_drain];
            for (const FigureArtifact &a : slot.buffer.emitted())
                sink_.emit(a);
            if (on_drained)
                on_drained(*slot.info, head_sec);
            ++next_drain;
            continue;
        }
        // Head still running: work instead of waiting when the pool
        // has anything queued (experiment bodies or their nested
        // sweep tasks), otherwise sleep until a completion signal.
        if (pool_.tryRunOneTask())
            continue;
        std::unique_lock<std::mutex> lock(mu);
        if (!slots[next_drain]->done)
            cv.wait_for(lock, std::chrono::milliseconds(1));
    }
}

} // namespace contest
