/**
 * @file
 * Region logging for the paper's Section 2 limit study (Figure 1).
 *
 * A RegionLog records the simulated time spent retiring each
 * consecutive 20-instruction region of a run. simulateMigration()
 * (harness/migration.hh) with a free oracle then models oracle
 * switching between two configurations at a given granularity: each
 * granularity-sized block of instructions is charged the time of
 * whichever configuration retired it faster (clock periods already
 * folded in, since the log stores wall time, not cycles).
 */

#ifndef CONTEST_HARNESS_REGION_LOG_HH
#define CONTEST_HARNESS_REGION_LOG_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace contest
{

/** Per-region retirement times of one run. */
class RegionLog
{
  public:
    /** The paper logs cycles per 20 dynamic instructions. */
    static constexpr std::uint64_t regionInsts = 20;

    RegionLog() = default;

    /** Rebuild from a recorded series (result-cache restore). */
    explicit RegionLog(std::vector<TimePs> recorded)
        : times(std::move(recorded))
    {}

    /**
     * Observe one retirement (wired to OooCore::setRetireCallback).
     * Every regionInsts-th retirement closes a region.
     */
    void
    onRetire(InstSeq seq, TimePs now)
    {
        if ((seq + 1).count() % regionInsts == 0) {
            times.push_back(now - regionStart);
            regionStart = now;
        }
    }

    /** Number of closed regions. */
    std::size_t size() const { return times.size(); }

    /** Time spent in region @p i, in picoseconds. */
    TimePs operator[](std::size_t i) const { return times[i]; }

    /** Total time over all closed regions. */
    TimePs total() const;

    /** The raw series (for oracle switching). */
    const std::vector<TimePs> &series() const { return times; }

  private:
    std::vector<TimePs> times;
    TimePs regionStart{};
};

} // namespace contest

#endif // CONTEST_HARNESS_REGION_LOG_HH
