/**
 * @file
 * Per-core contesting unit: pop counters, fetch-counter pairing,
 * late-result discarding, early branch resolution, store-merge and
 * exception bridging (paper Sections 4.1-4.3).
 *
 * One unit is attached to each core through the ContestHooks
 * interface. Because the core model is trace driven (only correct
 * path instructions are fetched), the core's fetch stream position
 * *is* the paper's checkpoint-restored fetch counter: wrong-path
 * over-counting and its checkpoint/restore never materialize, and
 * the Scenario #1 / #2 comparison reduces to comparing the fetch
 * position against each FIFO's pop counter.
 */

#ifndef CONTEST_CONTEST_UNIT_HH
#define CONTEST_CONTEST_UNIT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "contest/config.hh"
#include "contest/result_fifo.hh"
#include "core/contest_iface.hh"

namespace contest
{

class ContestSystem;

/** Statistics specific to the contesting unit. */
struct UnitStats
{
    std::uint64_t paired = 0;      //!< results paired with fetches
    std::uint64_t discarded = 0;   //!< late results dropped
    std::uint64_t broadcasts = 0;  //!< results sent on the GRB
    bool saturated = false;        //!< parked as a saturated lagger
    TimePs parkedAt{};
};

/** ContestHooks implementation backing one core. */
class CoreContestUnit : public ContestHooks
{
  public:
    /**
     * @param self this core's id within the system
     * @param contest_config shared contesting configuration
     * @param owner the system providing GRB routing, the store
     *              queue and the exception coordinator
     * @param num_cores total cores in the system
     */
    CoreContestUnit(CoreId self, const ContestConfig &contest_config,
                    ContestSystem *owner, unsigned num_cores);

    /** @name ContestHooks */
    /** @{ */
    FetchOutcome onFetch(InstSeq seq, TimePs now) override;
    std::optional<TimePs> externalBranchResolve(InstSeq seq,
                                                TimePs now) override;
    void confirmEarlyResolve(InstSeq seq, TimePs now) override;
    void onRetire(InstSeq seq, const TraceInst &inst,
                  TimePs now) override;
    bool storeCanCommit(TimePs now) override;
    void onStoreCommit(Addr addr, TimePs now) override;
    std::optional<TimePs> onSyscall(InstSeq seq, TimePs now) override;
    bool parked() const override { return stats_.saturated; }
    /** @} */

    /**
     * A result from core @p src arrives on this core's incoming GRB
     * (arrival pre-delayed by the bus latency). Overflow makes this
     * core a saturated lagger.
     */
    void receiveResult(CoreId src, InstSeq seq, TimePs arrival);

    /** Unit statistics. */
    const UnitStats &stats() const { return stats_; }

    /** Pop counter of the incoming FIFO fed by core @p src. */
    InstSeq popCounter(CoreId src) const { return fifos[src].headSeq(); }

    /** Late-bind the core this unit serves (for its fetch counter). */
    void setCore(const OooCore *core_model) { core = core_model; }

  private:
    void park(TimePs now);

    CoreId self;
    const ContestConfig &cfg;
    ContestSystem *sys;
    const OooCore *core = nullptr;
    /** Incoming FIFOs indexed by source core id (self unused). */
    std::vector<ResultFifo> fifos;
    UnitStats stats_;
    /** Source core whose result won the last externalBranchResolve,
     *  armed until the core confirms (or the unit parks).
     *  confirmEarlyResolve must pop exactly this FIFO: another
     *  source may hold the same head seq with a later (or still
     *  in-flight) arrival, and popping it would credit a result the
     *  core never saw. */
    std::optional<CoreId> earlyResolveSrc;
    InstSeq earlyResolveSeq{};
};

} // namespace contest

#endif // CONTEST_CONTEST_UNIT_HH
