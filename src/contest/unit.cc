#include "contest/unit.hh"

#include "contest/system.hh"

namespace contest
{

CoreContestUnit::CoreContestUnit(CoreId self_id,
                                 const ContestConfig &contest_config,
                                 ContestSystem *owner,
                                 unsigned num_cores)
    : self(self_id), cfg(contest_config), sys(owner)
{
    fatal_if(owner == nullptr, "CoreContestUnit needs a system");
    fifos.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c)
        fifos.emplace_back(cfg.fifoCapacity);
}

FetchOutcome
CoreContestUnit::onFetch(InstSeq seq, TimePs now)
{
    FetchOutcome out;
    if (stats_.saturated)
        return out;

    for (std::size_t c = 0; c < fifos.size(); ++c) {
        if (c == self)
            continue;
        ResultFifo &fifo = fifos[c];
        // Scenario #1: late results are popped and discarded.
        stats_.discarded += fifo.discardBelow(seq);
        // Scenario #2: the pop counter has caught the fetch counter
        // and the head result has physically arrived — pair it with
        // this fetch and complete the instruction early.
        if (!out.injected && fifo.headSeq() == seq
            && fifo.headArrived(now)) {
            fifo.pop();
            ++stats_.paired;
            out.injected = true;
        }
    }
    return out;
}

std::optional<TimePs>
CoreContestUnit::externalBranchResolve(InstSeq seq, TimePs)
{
    if (stats_.saturated || !cfg.earlyBranchResolve)
        return std::nullopt;

    std::optional<TimePs> best;
    std::optional<CoreId> best_src;
    for (std::size_t c = 0; c < fifos.size(); ++c) {
        if (c == self)
            continue;
        ResultFifo &fifo = fifos[c];
        stats_.discarded += fifo.discardBelow(seq);
        if (fifo.headSeq() == seq) {
            auto arrival = fifo.headArrival();
            if (arrival && (!best || *arrival < *best)) {
                best = arrival;
                best_src = static_cast<CoreId>(c);
            }
        }
    }
    // Remember which source won: several FIFOs can hold the same
    // head seq, and the core will confirm against the arrival time
    // we just returned. Popping any other FIFO on confirm would pair
    // a result that arrives later (or not at all).
    earlyResolveSrc = best_src;
    earlyResolveSeq = seq;
    return best;
}

void
CoreContestUnit::confirmEarlyResolve(InstSeq seq, TimePs now)
{
    // Pop the retired branch instance that resolved us early; the
    // pop counter now equals the restored fetch counter, so the
    // next fetch pairs in Scenario #2. Only the FIFO whose arrival
    // won externalBranchResolve may be popped — another source can
    // hold the same head seq with a result still on the bus.
    panic_if(!earlyResolveSrc || earlyResolveSeq != seq,
             "confirmEarlyResolve(%llu): no armed resolution "
             "(armed seq %llu)",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(earlyResolveSeq));
    ResultFifo &fifo = fifos[*earlyResolveSrc];
    panic_if(fifo.headSeq() != seq || !fifo.headArrived(now),
             "confirmEarlyResolve(%llu): source %u no longer holds "
             "the arrived branch",
             static_cast<unsigned long long>(seq), *earlyResolveSrc);
    fifo.pop();
    ++stats_.paired;
    earlyResolveSrc.reset();
}

void
CoreContestUnit::onRetire(InstSeq seq, const TraceInst &inst,
                          TimePs now)
{
    (void)inst;
    sys->noteRetire(self, seq);
    if (stats_.saturated)
        return;
    ++stats_.broadcasts;
    sys->broadcast(self, seq, now);
}

bool
CoreContestUnit::storeCanCommit(TimePs)
{
    if (stats_.saturated)
        return true;
    return sys->storeQueue().canAccept(self);
}

void
CoreContestUnit::onStoreCommit(Addr addr, TimePs)
{
    if (stats_.saturated)
        return;
    sys->storeQueue().performStore(self, addr);
}

std::optional<TimePs>
CoreContestUnit::onSyscall(InstSeq seq, TimePs now)
{
    if (stats_.saturated)
        return now;
    return sys->exceptions().arrive(self, seq, now);
}

void
CoreContestUnit::receiveResult(CoreId src, InstSeq seq,
                               TimePs arrival)
{
    if (stats_.saturated)
        return;
    panic_if(src == self, "core %u received its own result", self);
    if (fifos[src].push(seq, arrival))
        return;

    // The FIFO is full. If the buffered entries are already behind
    // this core's fetch counter they are late results that would be
    // discarded at the next fetch anyway (the core may simply be
    // stalled); dropping them is Scenario #1 behaviour, not
    // saturation.
    if (core != nullptr) {
        stats_.discarded +=
            fifos[src].discardBelow(core->nextFetchSeq());
        if (fifos[src].push(seq, arrival))
            return;
    }

    // Genuine overflow: this core cannot sustain the leader's
    // retirement rate. Disable contesting mode for it (Sec. 4.1.4),
    // or — if parking is disabled for ablation — drop the oldest
    // buffered result to keep the stream contiguous, abandoning the
    // chance to pair it.
    if (cfg.parkSaturatedLaggers) {
        park(arrival);
    } else {
        fifos[src].pop();
        ++stats_.discarded;
        bool pushed = fifos[src].push(seq, arrival);
        panic_if(!pushed, "ResultFifo refill failed after drop");
    }
}

void
CoreContestUnit::park(TimePs now)
{
    if (stats_.saturated)
        return;
    stats_.saturated = true;
    stats_.parkedAt = now;
    earlyResolveSrc.reset();
    for (auto &fifo : fifos)
        fifo.clear();
    sys->corePark(self, now);
}

} // namespace contest
