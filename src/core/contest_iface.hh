/**
 * @file
 * The interface through which an out-of-order core participates in
 * contested execution. The core model depends only on this abstract
 * interface; the contesting machinery (result FIFOs, pop counters,
 * GRB wiring, store merging, exception rendezvous) lives in
 * src/contest and implements it.
 */

#ifndef CONTEST_CORE_CONTEST_IFACE_HH
#define CONTEST_CORE_CONTEST_IFACE_HH

#include <optional>

#include "common/types.hh"
#include "trace/instr.hh"

namespace contest
{

/** What the fetch stage learned from the contesting unit. */
struct FetchOutcome
{
    /**
     * The instruction was paired with a popped result (Scenario #2):
     * branches complete in fetch, value producers at rename, and no
     * prediction or execution is needed.
     */
    bool injected = false;
};

/** Per-core contesting hooks; all methods are called in core order. */
class ContestHooks
{
  public:
    virtual ~ContestHooks() = default;

    /**
     * The core fetches the instruction at stream position @p seq at
     * global time @p now. Implements the Scenario #1 / Scenario #2
     * logic: discards late results, and pairs a popped result with
     * the fetch when the core is trailing.
     */
    virtual FetchOutcome onFetch(InstSeq seq, TimePs now) = 0;

    /**
     * The core is stalled on a mispredicted branch at position
     * @p seq. Returns the global time at which a retired instance of
     * that branch was (or will have been) received from the most
     * advanced result FIFO — the Figure 5 corner case — or nullopt
     * if no such result is available yet. A returned time <= now
     * resolves the branch early and turns the core into a trailer.
     */
    virtual std::optional<TimePs>
    externalBranchResolve(InstSeq seq, TimePs now) = 0;

    /**
     * The core consumed the early resolution for the branch at
     * @p seq: the corresponding result is popped, which makes the
     * pop counter equal the (restored) fetch counter and turns
     * Scenario #1 into Scenario #2, exactly as in Figure 5.
     */
    virtual void confirmEarlyResolve(InstSeq seq, TimePs now) = 0;

    /** The core retires @p inst at position @p seq: broadcast on the
     *  core's outgoing global result bus. */
    virtual void onRetire(InstSeq seq, const TraceInst &inst,
                          TimePs now) = 0;

    /** May the next store commit, or is the synchronizing store
     *  queue exerting backpressure? */
    virtual bool storeCanCommit(TimePs now) = 0;

    /** The core commits its next store (program order) to @p addr. */
    virtual void onStoreCommit(Addr addr, TimePs now) = 0;

    /**
     * The core reached a synchronous exception at position @p seq
     * (commit point, pipeline drained). Implements the semaphore
     * rendezvous of Section 4.3. Returns the global time at which
     * this core may resume, or nullopt while other contesting cores
     * have not yet reached the exception (retry next cycle).
     */
    virtual std::optional<TimePs> onSyscall(InstSeq seq,
                                            TimePs now) = 0;

    /**
     * Is this core parked as a saturated lagger (Section 4.1.4)?
     * A parked core stops fetching and no longer holds back the
     * synchronizing store queue.
     */
    virtual bool parked() const = 0;
};

} // namespace contest

#endif // CONTEST_CORE_CONTEST_IFACE_HH
