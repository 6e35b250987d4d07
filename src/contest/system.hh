/**
 * @file
 * An architectural contesting multi-core system (paper Figure 2):
 * N cores concurrently executing the same dynamic instruction
 * stream, cross-connected by global result buses, backed by a
 * synchronizing store queue at the shared level and a rendezvous
 * exception coordinator, all stepped time-synchronously on a global
 * picosecond timeline.
 */

#ifndef CONTEST_CONTEST_SYSTEM_HH
#define CONTEST_CONTEST_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "contest/calendar.hh"
#include "contest/config.hh"
#include "contest/exception.hh"
#include "contest/unit.hh"
#include "core/ooo_core.hh"
#include "core/stats.hh"
#include "mem/sync_store_queue.hh"
#include "power/energy.hh"
#include "trace/trace.hh"

namespace contest
{

/** Outcome of one contested execution. */
struct ContestResult
{
    /** Global time when the first core retired the whole trace. */
    TimePs timePs{};
    /** Instructions retired per nanosecond (the paper's IPT). */
    double ipt = 0.0;
    /** Per-core pipeline statistics. */
    std::vector<CoreStats> coreStats;
    /** Per-core contesting-unit statistics. */
    std::vector<UnitStats> unitStats;
    /**
     * Fraction of instructions each core retired first — how
     * actively each core led the contest.
     */
    std::vector<double> leadFraction;
    /** Number of times the leading core changed. */
    std::uint64_t leadChanges = 0;
    /** Stores merged to the shared level. */
    StoreSeq mergedStores{};
    /** Exceptions handled by the rendezvous handler. */
    std::uint64_t exceptionsHandled = 0;
    /** Asynchronous interrupts serviced (terminate-and-refork). */
    std::uint64_t interruptsHandled = 0;
    /** Per-core energy estimate for the run. */
    std::vector<EnergyBreakdown> energy;

    /** Total energy over all cores, in nanojoules. */
    double
    totalEnergyNj() const
    {
        double sum = 0.0;
        for (const auto &e : energy)
            sum += e.totalNj();
        return sum;
    }
};

/** N-way architectural contesting system. */
class ContestSystem
{
  public:
    /**
     * @param core_configs one configuration per contesting core
     * @param trace_ptr the shared dynamic instruction stream
     * @param contest_config contesting machinery configuration
     */
    ContestSystem(std::vector<CoreConfig> core_configs,
                  TracePtr trace_ptr,
                  const ContestConfig &contest_config = {});

    ~ContestSystem();

    ContestSystem(const ContestSystem &) = delete;
    ContestSystem &operator=(const ContestSystem &) = delete;

    /**
     * Run the contest to completion: execution ends when the first
     * core retires the final instruction. Statically mismatched
     * peak rates (Section 4.1.4) are reported through warn(); the
     * dynamic saturation detector parks offenders either way.
     */
    ContestResult run();

    /** Access a core's contesting unit (valid after construction). */
    CoreContestUnit &unit(CoreId id) { return *units.at(id); }

    /** @name Services used by the per-core units */
    /** @{ */
    /** Route a retired result from @p from to every other core. */
    void broadcast(CoreId from, InstSeq seq, TimePs now);
    /** A unit parked itself as a saturated lagger. */
    void corePark(CoreId core, TimePs now);
    /** The shared synchronizing store queue. */
    SyncStoreQueue &storeQueue() { return *storeQ; }
    /** The exception coordinator. */
    ExceptionCoordinator &exceptions() { return *excCoord; }
    /** First core to retire each instruction (lead tracking). */
    void noteRetire(CoreId core, InstSeq seq);
    /** @} */

  private:
    /**
     * Mutable state of one run(): the event calendar, the eager-skip
     * records, finish/interrupt/watchdog bookkeeping. Only seqStep
     * advances it.
     */
    struct RunState
    {
        explicit RunState(std::size_t n) : calendar(n), skipRec(n) {}

        TickCalendar calendar;

        /** A skipping core's latest eagerly-elided window (see
         *  rewindPastEdge). */
        struct SkipRecord
        {
            TimePs tickedAt{};
            Cycles scheduled{};
        };
        std::vector<SkipRecord> skipRec;

        bool noSkip = false;
        std::uint64_t parksSeen = 0;
        TimePs nextInterrupt{};

        TimePs finishTime{};
        CoreId finisher = 0;
        bool finished = false;

        /** Deadlock watchdog (simulated ticks since the retire
         *  frontier last advanced). */
        InstSeq lastFrontier{};
        std::uint64_t stuckTicks = 0;
    };

    /** One step of the event loop: service a due interrupt or tick
     *  the earliest core, then do the park / finish / watchdog
     *  bookkeeping. */
    void seqStep(RunState &rs);

    /** Rewind the part of @p c's last skip window ordering at or
     *  after the (time @p t, core @p pick) edge. */
    void rewindPastEdge(RunState &rs, CoreId c, TimePs t, CoreId pick);

    /** Spend one simulated tick (plus its elided cycles) of deadlock
     *  watchdog budget, resetting on retire-frontier progress. */
    void noteTickForWatchdog(RunState &rs, Cycles skipped);

    /** Assemble the ContestResult once rs.finished. */
    ContestResult collectResult(const RunState &rs);

    std::vector<CoreConfig> configs;
    TracePtr trace;
    ContestConfig cfg;

    std::vector<std::unique_ptr<OooCore>> cores;
    std::vector<std::unique_ptr<CoreContestUnit>> units;
    std::unique_ptr<SyncStoreQueue> storeQ;
    std::unique_ptr<ExceptionCoordinator> excCoord;

    /** @name Lead tracking */
    /** @{ */
    InstSeq frontier{};
    CoreId lastLeader = 0;
    std::uint64_t leadChanges = 0;
    std::vector<std::uint64_t> leadCounts;
    /** @} */

    /** @name Asynchronous interrupts (Section 4.3) */
    /** @{ */
    /** Terminate-and-refork all cores at the designated core's
     *  position at global time @p now. */
    void serviceInterrupt(TimePs now, TickCalendar &calendar);
    /** Stores preceding each stream position (prefix counts). */
    std::vector<std::uint32_t> storePrefix;
    std::uint64_t interrupts = 0;
    /** @} */

    /** Parks observed so far; run() compares against its own count
     *  to detect a park that happened inside the current tick (the
     *  parked core's in-flight skip window must be rewound). */
    std::uint64_t parkEvents = 0;
};

/**
 * Convenience: run one benchmark trace alone on one core type
 * (no contesting) and return its IPT result.
 */
struct SingleRunResult
{
    TimePs timePs{};
    double ipt = 0.0;
    CoreStats stats;
    EnergyBreakdown energy;
};

/**
 * Execute the trace on a single core of the given configuration,
 * skipping idle cycles (CONTEST_NO_SKIP=1 steps every cycle).
 * @p on_retire, if set, observes every retirement as (seq, time);
 * skipped cycles retire nothing, so it sees the same pairs in both
 * modes.
 */
SingleRunResult runSingle(const CoreConfig &config, TracePtr trace,
                          OooCore::RetireCallback on_retire = {});

/**
 * The cache-activity counters a finished core contributes to its
 * energy estimate. Contested runs add the GRB broadcast and
 * injection counts on top.
 */
ActivityCounts baseActivity(const OooCore &core);

} // namespace contest

#endif // CONTEST_CONTEST_SYSTEM_HH
