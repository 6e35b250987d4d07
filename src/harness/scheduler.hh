/**
 * @file
 * Suite-wide pipelined experiment scheduler: the contest_bench
 * driver's only loop.
 *
 * Running each experiment to completion — sweeps, artifact, stdout —
 * before starting the next would drain the pool to idle at every
 * experiment boundary. The scheduler instead posts every selected
 * experiment to the shared thread pool at once: experiment bodies
 * overlap freely (their simulations are already safe to interleave
 * — the Runner memoizes under per-key once-latches), and the
 * pipeline bubbles between experiments disappear.
 *
 * Output is the same as a sequential loop's because experiments
 * never touch stdout directly: each one emits into a private
 * buffering ArtifactSink, and the scheduler drains completed
 * experiments strictly in submission (registry) order, re-emitting
 * their artifacts through the real sink — which renders stdout and
 * writes the JSON files. While the head experiment is still running,
 * the draining thread donates itself to the pool instead of
 * sleeping; on a pool with no workers (--jobs 1) that is how every
 * body runs, one at a time, in submission order.
 */

#ifndef CONTEST_HARNESS_SCHEDULER_HH
#define CONTEST_HARNESS_SCHEDULER_HH

#include <functional>
#include <vector>

#include "common/thread_pool.hh"
#include "harness/registry.hh"

namespace contest
{

/** Runs a selection of experiments concurrently, draining results in
 *  submission order. */
class SuiteScheduler
{
  public:
    /**
     * @param runner shared experiment runner (thread-safe)
     * @param sink the real artifact sink (stdout + JSON files);
     *        touched only by the thread that calls run()
     * @param pool pool the experiments are posted to
     */
    SuiteScheduler(Runner &runner, ArtifactSink &sink,
                   ThreadPool &pool)
        : runner_(runner), sink_(sink), pool_(pool)
    {}

    /** Called as each experiment is drained, in submission order,
     *  with its body's wall-clock seconds. */
    using DrainFn =
        std::function<void(const ExperimentInfo &, double)>;

    /**
     * Run all of @p to_run and return when every experiment has
     * completed and been drained through the sink.
     */
    void run(const std::vector<const ExperimentInfo *> &to_run,
             const DrainFn &on_drained);

  private:
    Runner &runner_;
    ArtifactSink &sink_;
    ThreadPool &pool_;
};

} // namespace contest

#endif // CONTEST_HARNESS_SCHEDULER_HH
