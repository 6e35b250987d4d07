/**
 * @file
 * Trace-driven cycle-level out-of-order superscalar core model.
 *
 * The model honors every Appendix A parameter: fetch is width-bound
 * and taken-branch-bound; fetched instructions spend frontEndDepth
 * cycles reaching rename; dispatch is bound by ROB/IQ/LSQ occupancy;
 * issue selects up to width ready instructions oldest-first with
 * wakeupLatency between a producer's execution and its dependents'
 * earliest issue; loads occupy MSHRs on misses and L1D ports at
 * issue; schedDepth cycles separate issue from completion (paid by
 * branch resolution and retirement, hidden from dependents by the
 * bypass network); commit is in-order and width-bound.
 *
 * Wrong-path instructions are not modeled (trace-driven): a
 * misprediction stalls fetch until the branch resolves, which
 * charges the same resolution + front-end-refill penalty to baseline
 * and contested runs alike.
 *
 * Hot-path structure (DESIGN.md §12): all per-instruction pipeline
 * state lives in structure-of-arrays form. The ROB and fetch queue
 * are implicit rings — in-flight stream positions are contiguous, so
 * an entry's index is just `seq & ringMask` and no per-entry seq is
 * stored. Per-entry booleans (issued/completed/injected/ready) are
 * single bits in uint64 mask words, so issue select is a
 * find-first-set scan over the ready mask in age order instead of a
 * heap, and a 64-entry dependence wave costs one load. The issue
 * queue is a slot pool driven by a wakeup network — an instruction
 * waits on its producers' waiter chains and is queued on a
 * cycle-indexed wakeup ring when the last producer issues; when the
 * operand time arrives its ready bit is set. Completion, LSQ-release
 * and MSHR-release events ride the same timing-wheel structure
 * (common/cycle_ring.hh), so per-tick event delivery is bucket reads
 * instead of heap sifts. On top of that the core can prove an idle
 * window (nextEventCycle) and fast-forward through it
 * (skipIdleCycles), replaying the per-cycle stall counters exactly;
 * schedulers use this to elide provably dead ticks while staying
 * bit-identical to cycle-by-cycle stepping.
 *
 * Contesting hooks (fetch pairing, retirement broadcast, store
 * merging, exception rendezvous, saturated-lagger parking) are
 * injected through the ContestHooks interface so the core library
 * has no dependency on the contesting machinery.
 */

#ifndef CONTEST_CORE_OOO_CORE_HH
#define CONTEST_CORE_OOO_CORE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bpred/bpred.hh"
#include "common/cycle_ring.hh"
#include "common/soa.hh"
#include "core/config.hh"
#include "core/contest_iface.hh"
#include "core/stats.hh"
#include "mem/hierarchy.hh"
#include "trace/trace.hh"

namespace contest
{

/** How a popped result completes a trailing core's instruction. */
enum class InjectionStyle
{
    /**
     * Write the value into the physical register at rename, using
     * write ports transferred from the writeback stage (the paper's
     * primary scheme, Section 4.1.3). Injected instructions bypass
     * the issue queue entirely.
     */
    PortSteal,
    /**
     * Dispatch into the issue queue marked immediately ready (the
     * paper's "more straightforward alternative"). Injected
     * instructions consume issue-queue slots and issue bandwidth.
     */
    MarkReady,
};

/** Cycle-level out-of-order core executing one trace. */
class OooCore
{
  public:
    /** Called on every retirement: (stream position, global time). */
    using RetireCallback = std::function<void(InstSeq, TimePs)>;

    /**
     * @param core_config validated core parameters
     * @param trace_ptr the retired instruction stream to execute
     * @param core_id identifier within a multi-core system
     */
    OooCore(const CoreConfig &core_config, TracePtr trace_ptr,
            CoreId core_id = 0);

    /** Cores constructed in this process so far, contest cores
     *  included. Every simulation builds at least one, so a stretch
     *  that builds none simulated nothing. */
    static std::uint64_t instancesBuilt();

    /** Attach contesting hooks (optional; pass nullptr to detach). */
    void attachContest(ContestHooks *contest_hooks,
                       InjectionStyle injection_style);

    /** Register a retirement observer (region logging etc.). */
    void setRetireCallback(RetireCallback cb) { retireCb = std::move(cb); }

    /** Advance one clock cycle at global time @p now (picoseconds). */
    void tick(TimePs now);

    /**
     * The earliest cycle at which ticking could change state again.
     * Returns curCycle itself when no idle window is provable, and
     * a later cycle X when every tick in [curCycle, X) is a no-op
     * except for its per-cycle stall counters. Conservative: the
     * reported window may end before the next real event, never
     * after it.
     */
    Cycles nextEventCycle() const;

    /**
     * Fast-forward over provably idle cycles: advances the clock by
     * up to min(nextEventCycle() - curCycle, @p max_ticks) cycles,
     * incrementing exactly the stall counters that cycle-by-cycle
     * ticking would have. Call after tick(); the caller advances
     * its own timeline by the returned tick count.
     */
    Cycles skipIdleCycles(Cycles max_ticks);

    /**
     * Un-apply the last @p n ticks of the most recent
     * skipIdleCycles window. Schedulers use this when the core is
     * parked mid-window: elided ticks that would have ordered after
     * the parking event must not count.
     */
    void rewindIdleTicks(Cycles n);

    /** Cycles elided by skipIdleCycles over the whole run. */
    Cycles idleSkipped() const { return skippedTotal; }

    /** Has the whole trace retired on this core? */
    bool done() const { return numRetired == trace->endSeq(); }

    /** Instructions retired so far. */
    InstSeq retired() const { return numRetired; }

    /** Stream position of the next instruction to fetch — the
     *  paper's (checkpoint-corrected) fetch counter. */
    InstSeq nextFetchSeq() const { return fetchSeq; }

    /** Core cycles elapsed. */
    Cycles cycle() const { return curCycle; }

    /** Clock period in picoseconds. */
    TimePs periodPs() const { return cfg.clockPeriodPs; }

    /** This core's identifier. */
    CoreId id() const { return coreId; }

    /** The active configuration. */
    const CoreConfig &config() const { return cfg; }

    /** Execution statistics. */
    const CoreStats &stats() const { return st; }

    /** The private data-memory hierarchy (for statistics). */
    const DataHierarchy &memory() const { return hier; }

    /** The L1 instruction cache, if modeled. */
    const Cache *instructionCache() const { return icache.get(); }

    /** Mutable hierarchy access (write-policy switching). */
    DataHierarchy &memory() { return hier; }

  private:
    /** Operand-time wakeup record, bucketed by ready cycle; (seq,
     *  slot) revalidates against the pool at drain. */
    struct TimedReady
    {
        InstSeq seq{};
        std::int32_t slot = -1;

        /** Overflow tie-break; the pair's cycle orders first and
         *  same-cycle handlers commute, so seq alone is enough. */
        bool
        operator<(const TimedReady &o) const
        {
            return seq < o.seq;
        }
    };
    // Two records per 32B half-cacheline; a grown field would
    // silently halve the wheel's bucket density.
    static_assert(sizeof(TimedReady) == 16,
                  "TimedReady must stay two-per-half-cacheline");

    /** Why dispatch cannot accept the fetch-queue front right now. */
    enum class DispatchBlock
    {
        None,           //!< front would dispatch
        Empty,          //!< nothing renamed yet (or queue empty)
        ConsumesEarly,  //!< front consumes the earlyResolved patch
        SyscallDrain,   //!< syscall serializing on a non-empty ROB
        RobFull,
        IqFull,
        LsqFull,
    };

    void doCommit(TimePs now);
    void doComplete(TimePs now);
    void doIssue(TimePs now);
    void doDispatch(TimePs now);
    void doFetch(TimePs now);

    /** @name Implicit-ring position maps
     *
     * ROB and fetch-queue seqs are contiguous, so position is a mask
     * of the raw stream position. robPosChecked preserves the old
     * robFor() window panics for paths that must not see a stale or
     * undispatched seq.
     */
    /** @{ */
    std::size_t
    ringPos(InstSeq seq) const
    {
        return static_cast<std::size_t>(seq.count()) & ringMask;
    }

    std::size_t
    fqPos(InstSeq seq) const
    {
        return static_cast<std::size_t>(seq.count()) & fqMask;
    }

    std::size_t robPosChecked(InstSeq seq) const;
    /** @} */

    /** Is the given producer's value available, and when? */
    bool srcStatus(InstSeq producer, Cycles &ready_at) const;

    /** @name Issue-queue pool */
    /** @{ */
    int allocIqSlot();
    void freeIqSlot(int slot);
    /** Move every waiter of the producer at ROB ring position
     *  @p prod_pos to the timed-ready ring. */
    void wakeWaiters(std::size_t prod_pos);
    /** An in-queue instruction was completed externally (early
     *  branch resolution): queue it for a scan-order reap. */
    void markIqStale(InstSeq seq, int slot);
    /** Reap stale IQ entries older than @p before (the point the
     *  old linear scan would have reached). */
    void reapStaleBefore(InstSeq before);
    /** Drop a stale slot: unchain pending operands and free it. */
    void dropStaleSlot(int slot);
    /** @} */

    /**
     * Invoke @p fn(seq) for every set ready bit with stream position
     * in [from, to), oldest first. The ring maps the range onto at
     * most two linear bit segments. @p fn returns false to stop.
     */
    template <typename Fn>
    void
    forEachReady(InstSeq from, InstSeq to, Fn &&fn) const
    {
        if (!(from < to))
            return;
        const auto span =
            static_cast<std::size_t>((to - from).count());
        const std::size_t pos0 = ringPos(from);
        const std::size_t lin = std::min(span, ringCap - pos0);
        const auto relay = [&](std::size_t base_pos, InstSeq base_seq,
                               std::size_t count) {
            return scanBits(readyW, base_pos, base_pos + count,
                            [&](std::size_t p) {
                                return fn(base_seq + (p - base_pos));
                            });
        };
        if (!relay(pos0, from, lin))
            return;
        if (span > lin)
            relay(0, from + lin, span - lin);
    }

    /** Classify the dispatch stage's view of the fetch-queue front. */
    DispatchBlock dispatchBlock() const;

    const CoreConfig cfg;
    TracePtr trace;
    const CoreId coreId;

    DataHierarchy hier;
    BranchPredictor bpred;
    Btb btb;
    /** Optional L1 instruction cache (perfect when absent). */
    std::unique_ptr<Cache> icache;

    ContestHooks *hooks = nullptr;
    InjectionStyle style = InjectionStyle::PortSteal;
    RetireCallback retireCb;

    /** Batched decode: raw bases of the trace's instruction and
     *  pre-decoded flags arrays (the trace is immutable). */
    const TraceInst *trInsts = nullptr;
    const std::uint8_t *trFlags = nullptr;

    Cycles curCycle{};
    InstSeq fetchSeq{};
    InstSeq numRetired{};

    /** @name ROB (structure-of-arrays over an implicit ring)
     *
     * ringCap is a power of two with 2*width+2 slack beyond robSize:
     * an early-resolved entry can commit while its IQ slot is still
     * awaiting its reap point, and by the reap the head may have
     * advanced up to width in the commit tick plus width in the next
     * tick's commit stage — the slack keeps such a stale seq's bit
     * position distinct from every live entry's.
     */
    /** @{ */
    std::size_t ringCap = 0;
    std::size_t ringMask = 0;
    InstSeq robHeadSeq{};
    std::size_t robOcc = 0;
    SoaVec<Cycles> robValueReadyAt;
    /** Issue-queue slot of each entry, or -1. */
    SoaVec<std::int32_t> robIqSlot;
    /** Head of the chain of IQ slots waiting on each entry's value
     *  (slot * 2 + operand), or -1. */
    SoaVec<std::int32_t> robFirstWaiter;
    SoaVec<std::uint64_t> robIssuedW;
    SoaVec<std::uint64_t> robCompletedW;
    SoaVec<std::uint64_t> robInjectedW;
    /** Bit set: the entry sits in the IQ with all operands timed in
     *  — the issue select scans this word array oldest-first. */
    SoaVec<std::uint64_t> readyW;
    /** @} */

    /** @name Front-end (fetch-to-rename) pipeline ring */
    /** @{ */
    std::size_t fetchQueueCap = 0;
    std::size_t fqCap = 0;
    std::size_t fqMask = 0;
    std::size_t fqOcc = 0;
    SoaVec<Cycles> fqRenameReadyAt;
    SoaVec<std::uint64_t> fqInjectedW;
    /** @} */

    /** @name Issue-queue slot pool (structure-of-arrays) */
    /** @{ */
    SoaVec<InstSeq> iqSeq;
    SoaVec<InstSeq> iqSrcProd0;
    SoaVec<InstSeq> iqSrcProd1;
    SoaVec<Cycles> iqSrcReady0;
    SoaVec<Cycles> iqSrcReady1;
    /** Next slot*2+operand waiting on the same producer, or -1. */
    SoaVec<std::int32_t> iqNextWaiter0;
    SoaVec<std::int32_t> iqNextWaiter1;
    /** Free-list link when the in-use bit is clear. */
    SoaVec<std::int32_t> iqFreeNext;
    /** Bit set: the operand still waits for its producer. */
    SoaVec<std::uint64_t> iqPend0W;
    SoaVec<std::uint64_t> iqPend1W;
    SoaVec<std::uint64_t> iqInjectedW;
    SoaVec<std::uint64_t> iqInUseW;
    int iqFreeHead = -1;
    unsigned iqCount = 0;
    CycleRing<TimedReady> timedReady;
    /** Set bits in readyW (lets doIssue skip a scan-free tick). */
    unsigned readyCount = 0;
    /** Externally completed in-queue entries awaiting their reap
     *  point, sorted by seq (almost always empty or a singleton);
     *  parallel arrays. */
    std::vector<InstSeq> staleSeqs;
    std::vector<std::int32_t> staleSlots;
    /** @} */

    /** @name Rename map (producer per architectural register; the
     *  in-flight flags are one mask word — numArchRegs is 64). */
    /** @{ */
    SoaVec<InstSeq> renameProducer;
    std::uint64_t renameInFlightW = 0;
    /** @} */

    unsigned lsqOcc = 0;
    /** Data-return times of outstanding misses (MSHR release). */
    CycleRing<std::uint8_t> mshrReleases;
    /** One completion event, packed into a single word: bit 0 set
     *  when the instruction is a load whose LSQ slot releases the
     *  cycle its data returns — the same cycle the completion fires
     *  — so the release rides the completion instead of its own
     *  event ring; the remaining bits are the instruction seq. */
    static constexpr std::uint64_t
    packCompletion(InstSeq seq, bool lsq_release)
    {
        return seq.count() << 1 | (lsq_release ? 1 : 0);
    }
    /** Completion events of issued-but-incomplete instructions. */
    CycleRing<std::uint64_t> completions;

    /** @name Fetch-stall state */
    /** @{ */
    std::optional<InstSeq> stalledBranch;
    /** Early-resolved (Fig. 5) branch not yet dispatched/patched. */
    std::optional<InstSeq> earlyResolved;
    bool stalledSyscall = false;
    Cycles fetchResumeAt{};
    /** @} */

    /** Syscall commit-block state. */
    std::optional<TimePs> syscallResumePs;

    /** @name Idle-skip bookkeeping */
    /** @{ */
    /** The last skip window's tick count and replayed counters,
     *  kept so a mid-window park can rewind the tail. */
    struct SkipWindow
    {
        Cycles ticks{};
        bool robFull = false;
        bool iqFull = false;
        bool lsqFull = false;
        bool branchStall = false;
    };
    SkipWindow lastSkip;
    Cycles skippedTotal{};
    /** @} */

    CoreStats st;
};

} // namespace contest

#endif // CONTEST_CORE_OOO_CORE_HH
