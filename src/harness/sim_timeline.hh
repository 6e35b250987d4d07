/**
 * @file
 * Per-simulation timing instrumentation for the experiment harness.
 *
 * A SimTimeline records one span per simulation executed (or
 * restored from the persistent cache) by a Runner: when the request
 * was first observed (queue), when the simulation actually started,
 * and when it ended, all relative to the timeline's construction.
 * The suite driver reports the timeline with `--timing` and writes
 * it as SimTimeline.json next to the artifacts, so scheduler changes
 * are measured — queue delay, pool utilization, cache hit rate —
 * rather than asserted.
 *
 * Recording is a single mutex-guarded vector append per simulation;
 * simulations are milliseconds-scale, so the instrumentation cost is
 * noise even at --jobs 1.
 */

#ifndef CONTEST_HARNESS_SIM_TIMELINE_HH
#define CONTEST_HARNESS_SIM_TIMELINE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"

namespace contest
{

/** Thread-safe recorder of per-simulation queue/start/end spans. */
class SimTimeline
{
  public:
    using Clock = std::chrono::steady_clock;

    /** What kind of work a span covers. */
    enum class Kind
    {
        Single,  //!< one benchmark on one core, alone
        Contest, //!< an N-way contested run
    };

    /** One simulation's lifecycle, in seconds since the epoch. */
    struct Span
    {
        Kind kind = Kind::Single;
        std::string label; //!< e.g. "gcc@crafty" or "gcc@gcc+twolf"
        bool cached = false; //!< restored from disk, nothing simulated
        double queuedSec = 0.0; //!< request first observed
        double startSec = 0.0;  //!< simulation / cache probe began
        double endSec = 0.0;    //!< result available
    };

    /** Aggregates over all recorded spans. */
    struct Summary
    {
        std::size_t sims = 0;      //!< spans that actually simulated
        std::size_t cacheHits = 0; //!< spans restored from disk
        double busySec = 0.0;  //!< summed start-to-end of real sims
        double wallSec = 0.0;  //!< first queue to last end
        double queueSec = 0.0; //!< summed queue-to-start wait

        /** busy / wall: the mean simulation concurrency achieved. */
        double
        concurrency() const
        {
            return wallSec > 0.0 ? busySec / wallSec : 0.0;
        }
    };

    /** The epoch is construction time. */
    SimTimeline() : epoch(Clock::now()) {}

    /** The clock used for queue/start/end stamps. */
    static Clock::time_point now() { return Clock::now(); }

    /** Record one simulation's span. */
    void record(Kind kind, std::string label,
                Clock::time_point queued, Clock::time_point start,
                Clock::time_point end, bool cached);

    /** Snapshot of all spans, ordered by queue time (label breaks
     *  ties so the order is reproducible). */
    std::vector<Span> spans() const;

    /** Aggregate statistics over the snapshot. */
    Summary summary() const;

    /** The full timeline as JSON (for SimTimeline.json). */
    JsonValue toJson(unsigned jobs) const;

    /** The `--timing` stdout report: the summary plus the slowest
     *  simulations. */
    std::string renderReport(unsigned jobs) const;

  private:
    double
    sinceEpoch(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - epoch).count();
    }

    Clock::time_point epoch;
    mutable std::mutex mu;
    std::vector<Span> recorded;
};

} // namespace contest

#endif // CONTEST_HARNESS_SIM_TIMELINE_HH
