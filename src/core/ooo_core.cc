#include "core/ooo_core.hh"

#include <algorithm>
#include <atomic>

#include "common/log.hh"
#include "trace/decode.hh"

namespace contest
{

// The SoA field arrays are indexed by raw ring position; any padding
// or size drift would silently change the cache footprint the layout
// was sized for (DESIGN.md §12).
static_assert(sizeof(Cycles) == sizeof(std::uint64_t)
              && alignof(Cycles) == alignof(std::uint64_t),
              "Cycles must stay a bare uint64 wrapper: the ROB/IQ "
              "ready-time arrays are sized as one word per entry");
static_assert(sizeof(InstSeq) == sizeof(std::uint64_t)
              && alignof(InstSeq) == alignof(std::uint64_t),
              "InstSeq must stay a bare uint64 wrapper: the IQ "
              "producer arrays are sized as one word per entry");
static_assert(static_cast<std::size_t>(
                  CachelineAllocator<std::uint64_t>::alignment) == 64,
              "SoA field arrays must start cacheline-aligned so two "
              "hot arrays never share a line");
static_assert(numArchRegs == 64,
              "the rename in-flight flags are a single uint64 mask "
              "word — one bit per architectural register");

namespace
{
std::atomic<std::uint64_t> coresBuilt{0};
} // namespace

std::uint64_t
OooCore::instancesBuilt()
{
    return coresBuilt.load();
}

OooCore::OooCore(const CoreConfig &core_config, TracePtr trace_ptr,
                 CoreId core_id)
    : cfg(core_config), trace(std::move(trace_ptr)), coreId(core_id),
      hier(cfg.l1d, cfg.l2, cfg.memAccessCycles,
           cfg.loadFillGapCycles(), cfg.storeDrainGapCycles()),
      bpred(cfg.bpred), btb(cfg.btb)
{
    ++coresBuilt;
    cfg.validate();
    fatal_if(!trace, "core '%s' constructed without a trace",
             cfg.name.c_str());
    if (cfg.wakeupLatency > cfg.schedDepth)
        warn("core '%s': wakeup latency (%llu) exceeds scheduler depth "
             "(%llu); committed producers are treated as ready",
             cfg.name.c_str(),
             static_cast<unsigned long long>(cfg.wakeupLatency),
             static_cast<unsigned long long>(cfg.schedDepth));
    trInsts = trace->data();
    trFlags = trace->decodedFlags();

    fetchQueueCap = std::size_t{cfg.width} * (cfg.frontEndDepth + 2);
    fqCap = nextPow2(fetchQueueCap);
    fqMask = fqCap - 1;
    fqRenameReadyAt.assign(fqCap, Cycles{});
    fqInjectedW.assign(maskWords(fqCap), 0);

    // Slack past robSize: see the ring-geometry comment in the header.
    ringCap = nextPow2(cfg.robSize + 2 * std::size_t{cfg.width} + 2);
    ringMask = ringCap - 1;
    robValueReadyAt.assign(ringCap, Cycles{});
    robIqSlot.assign(ringCap, -1);
    robFirstWaiter.assign(ringCap, -1);
    robIssuedW.assign(maskWords(ringCap), 0);
    robCompletedW.assign(maskWords(ringCap), 0);
    robInjectedW.assign(maskWords(ringCap), 0);
    readyW.assign(maskWords(ringCap), 0);

    iqSeq.assign(cfg.iqSize, InstSeq{});
    iqSrcProd0.assign(cfg.iqSize, InstSeq{});
    iqSrcProd1.assign(cfg.iqSize, InstSeq{});
    iqSrcReady0.assign(cfg.iqSize, Cycles{});
    iqSrcReady1.assign(cfg.iqSize, Cycles{});
    iqNextWaiter0.assign(cfg.iqSize, -1);
    iqNextWaiter1.assign(cfg.iqSize, -1);
    iqFreeNext.assign(cfg.iqSize, -1);
    iqPend0W.assign(maskWords(cfg.iqSize), 0);
    iqPend1W.assign(maskWords(cfg.iqSize), 0);
    iqInjectedW.assign(maskWords(cfg.iqSize), 0);
    iqInUseW.assign(maskWords(cfg.iqSize), 0);
    for (int i = 0; i < static_cast<int>(cfg.iqSize); ++i)
        iqFreeNext[i] = i + 1 < static_cast<int>(cfg.iqSize)
            ? i + 1 : -1;
    iqFreeHead = 0;

    // Event rings cover the longest ordinary event horizon — a full
    // memory round trip past the scheduler — with headroom for bus
    // queuing; rarer, longer delays spill to each ring's overflow
    // queue without loss.
    const std::size_t event_span = static_cast<std::size_t>(
        cfg.schedDepth.count() + cfg.wakeupLatency.count()
        + cfg.l1d.latency.count() + cfg.l2.latency.count()
        + cfg.memAccessCycles.count()) + 256;
    // Pool reservations are the structural in-flight bounds: wakeup
    // events are per IQ operand, completion events per ROB entry,
    // MSHR releases per LSQ slot — so steady-state pushes never
    // allocate.
    timedReady.init(event_span, 2 * cfg.iqSize + 8);
    completions.init(event_span, cfg.robSize + 8);
    mshrReleases.init(event_span, cfg.lsqSize + 8);
    staleSeqs.reserve(cfg.iqSize);
    staleSlots.reserve(cfg.iqSize);
    renameProducer.assign(numArchRegs, InstSeq{});
    if (cfg.modelICache)
        icache = std::make_unique<Cache>(cfg.l1i);
}

void
OooCore::attachContest(ContestHooks *contest_hooks,
                       InjectionStyle injection_style)
{
    hooks = contest_hooks;
    style = injection_style;
}

std::size_t
OooCore::robPosChecked(InstSeq seq) const
{
    panic_if(robOcc == 0, "robFor(%llu) on empty ROB",
             static_cast<unsigned long long>(seq));
    panic_if(seq < robHeadSeq || seq >= robHeadSeq + robOcc,
             "robFor(%llu) outside window [%llu, %llu)",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(robHeadSeq),
             static_cast<unsigned long long>(robHeadSeq + robOcc));
    return ringPos(seq);
}

bool
OooCore::srcStatus(InstSeq producer, Cycles &ready_at) const
{
    if (robOcc == 0 || producer < robHeadSeq) {
        // The producer has committed; its value is architectural.
        ready_at = Cycles{};
        return true;
    }
    panic_if(producer >= robHeadSeq + robOcc,
             "source producer %llu not yet dispatched",
             static_cast<unsigned long long>(producer));
    const std::size_t pos = ringPos(producer);
    if (!bitTest(robIssuedW, pos))
        return false;
    ready_at = robValueReadyAt[pos];
    return true;
}

int
OooCore::allocIqSlot()
{
    panic_if(iqFreeHead == -1, "IQ slot pool exhausted past iqSize");
    const int slot = iqFreeHead;
    iqFreeHead = iqFreeNext[slot];
    iqSeq[slot] = InstSeq{};
    iqSrcProd0[slot] = iqSrcProd1[slot] = InstSeq{};
    iqSrcReady0[slot] = iqSrcReady1[slot] = Cycles{};
    iqNextWaiter0[slot] = iqNextWaiter1[slot] = -1;
    iqFreeNext[slot] = -1;
    bitClear(iqPend0W, slot);
    bitClear(iqPend1W, slot);
    bitClear(iqInjectedW, slot);
    bitSet(iqInUseW, slot);
    ++iqCount;
    return slot;
}

void
OooCore::freeIqSlot(int slot)
{
    panic_if(!bitTest(iqInUseW, slot),
             "double free of IQ slot %d", slot);
    bitClear(iqInUseW, slot);
    bitClear(iqPend0W, slot);
    bitClear(iqPend1W, slot);
    iqNextWaiter0[slot] = iqNextWaiter1[slot] = -1;
    iqFreeNext[slot] = iqFreeHead;
    iqFreeHead = slot;
    panic_if(iqCount == 0, "IQ occupancy underflow");
    --iqCount;
}

void
OooCore::wakeWaiters(std::size_t prod_pos)
{
    std::int32_t w = robFirstWaiter[prod_pos];
    robFirstWaiter[prod_pos] = -1;
    const Cycles ready = robValueReadyAt[prod_pos];
    while (w != -1) {
        const int slot = w >> 1;
        std::int32_t next;
        if ((w & 1) == 0) {
            next = iqNextWaiter0[slot];
            iqNextWaiter0[slot] = -1;
            iqSrcReady0[slot] = ready;
            bitClear(iqPend0W, slot);
        } else {
            next = iqNextWaiter1[slot];
            iqNextWaiter1[slot] = -1;
            iqSrcReady1[slot] = ready;
            bitClear(iqPend1W, slot);
        }
        if (!bitTest(iqPend0W, slot) && !bitTest(iqPend1W, slot)) {
            const Cycles at =
                std::max(iqSrcReady0[slot], iqSrcReady1[slot]);
            timedReady.push(curCycle, at, {iqSeq[slot], slot});
        }
        w = next;
    }
}

void
OooCore::markIqStale(InstSeq seq, int slot)
{
    // Bounded by live IQ slots and reserve()d to cfg.iqSize at
    // construction, so the sorted inserts never reallocate.
    const auto it =
        std::upper_bound(staleSeqs.begin(), staleSeqs.end(), seq);
    const auto at = it - staleSeqs.begin();
    staleSeqs.insert(it, seq);
    staleSlots.insert(staleSlots.begin() + at, slot);
}

void
OooCore::dropStaleSlot(int slot)
{
    panic_if(!bitTest(iqInUseW, slot),
             "reaping a freed IQ slot %d", slot);
    for (int s = 0; s < 2; ++s) {
        const bool pending = s == 0 ? bitTest(iqPend0W, slot)
                                    : bitTest(iqPend1W, slot);
        if (!pending)
            continue;
        // A pending operand's producer cannot have issued (the wakeup
        // would have cleared the bit) and therefore cannot have
        // committed; unlink this slot from its waiter chain.
        const InstSeq prod =
            s == 0 ? iqSrcProd0[slot] : iqSrcProd1[slot];
        panic_if(robOcc == 0 || prod < robHeadSeq,
                 "stale IQ slot waits on a committed producer");
        const std::size_t prod_pos = robPosChecked(prod);
        const std::int32_t want = slot * 2 + s;
        std::int32_t *link = &robFirstWaiter[prod_pos];
        while (*link != -1 && *link != want)
            link = (*link & 1) == 0 ? &iqNextWaiter0[*link >> 1]
                                    : &iqNextWaiter1[*link >> 1];
        panic_if(*link == -1,
                 "stale IQ slot missing from its waiter chain");
        if (s == 0) {
            *link = iqNextWaiter0[slot];
            iqNextWaiter0[slot] = -1;
        } else {
            *link = iqNextWaiter1[slot];
            iqNextWaiter1[slot] = -1;
        }
    }
    // The entry may have become issuable before it went stale; its
    // ready bit is the select-scan record and must die with the slot.
    const std::size_t rp = ringPos(iqSeq[slot]);
    if (bitTest(readyW, rp)) {
        bitClear(readyW, rp);
        --readyCount;
    }
    freeIqSlot(slot);
}

void
OooCore::reapStaleBefore(InstSeq before)
{
    while (!staleSeqs.empty() && staleSeqs.front() < before) {
        dropStaleSlot(staleSlots.front());
        staleSeqs.erase(staleSeqs.begin());
        staleSlots.erase(staleSlots.begin());
    }
}

void
OooCore::tick(TimePs now)
{
    if (done())
        return;
    if (hooks != nullptr && hooks->parked())
        return;

    // Each stage call is gated by the exact condition under which its
    // body would do nothing (not even touch a counter), so a stage
    // with no work this cycle costs one or two loads instead of a
    // call and a queue inspection.
    if (completions.due(curCycle))
        doComplete(now);
    if (robOcc != 0 && bitTest(robCompletedW, ringPos(robHeadSeq)))
        doCommit(now);
    doIssue(now);
    if (fqOcc != 0
        && fqRenameReadyAt[fqPos(fetchSeq - fqOcc)] <= curCycle)
        doDispatch(now);
    doFetch(now);

    ++curCycle;
    ++st.cycles;
}

void
OooCore::doComplete(TimePs)
{
    completions.drainUpTo(curCycle, [&](std::uint64_t packed) {
        if (packed & 1) {
            // The load's data returned this cycle: its LSQ slot
            // frees here whether or not the entry still lives in
            // the ROB (an early-resolved load may have committed).
            panic_if(lsqOcc == 0, "LSQ underflow at load return");
            --lsqOcc;
        }
        const InstSeq seq{packed >> 1};
        if (robOcc == 0 || seq < robHeadSeq)
            return; // early-resolved and already committed
        const std::size_t pos = robPosChecked(seq);
        if (bitTest(robCompletedW, pos))
            return; // early resolution beat own execution
        bitSet(robCompletedW, pos);
        if (stalledBranch && *stalledBranch == seq) {
            stalledBranch.reset();
            fetchResumeAt = std::max(fetchResumeAt, curCycle + 1);
        }
    });
}

void
OooCore::doCommit(TimePs now)
{
    unsigned committed = 0;
    while (committed < cfg.width && robOcc != 0) {
        const std::size_t pos = ringPos(robHeadSeq);
        if (!bitTest(robCompletedW, pos))
            break;

        const InstSeq seq = robHeadSeq;
        const bool injected = bitTest(robInjectedW, pos);
        const TraceInst &inst = trInsts[seq.count()];
        const std::uint8_t fl = trFlags[seq.count()];

        if (fl & kDecStore) {
            if (hooks != nullptr && !hooks->storeCanCommit(now)) {
                ++st.storeQueueStalls;
                break;
            }
            // Redundant private store (write-through in contesting
            // mode); its latency is hidden by the store buffer.
            hier.access(inst.addr, true, curCycle);
            if (hooks != nullptr)
                hooks->onStoreCommit(inst.addr, now);
            if (!injected) {
                panic_if(lsqOcc == 0, "LSQ underflow at store commit");
                --lsqOcc;
            }
        } else if (fl & kDecSyscall) {
            if (!syscallResumePs) {
                if (hooks != nullptr) {
                    auto resume = hooks->onSyscall(seq, now);
                    if (!resume) {
                        ++st.syscallStalls;
                        break; // rendezvous incomplete; retry
                    }
                    syscallResumePs = *resume;
                } else {
                    syscallResumePs = now
                        + cyclesToPs(cfg.syscallHandlerCycles,
                                     cfg.clockPeriodPs);
                }
            }
            if (now < *syscallResumePs) {
                ++st.syscallStalls;
                break;
            }
            syscallResumePs.reset();
            stalledSyscall = false;
            fetchResumeAt = std::max(fetchResumeAt, curCycle + 1);
            ++st.syscalls;
        }

        if (fl & kDecWritesReg) {
            if ((renameInFlightW >> inst.dst & 1)
                && renameProducer[inst.dst] == seq)
                renameInFlightW &= ~(std::uint64_t{1} << inst.dst);
        }

        if (hooks != nullptr)
            hooks->onRetire(seq, inst, now);
        if (retireCb)
            // Region-log callback; only the single-core harness
            // attaches one, contested cores leave it empty.
            retireCb(seq, now);

        ++robHeadSeq;
        --robOcc;
        ++numRetired;
        ++st.retired;
        ++committed;
    }
}

void
OooCore::doIssue(TimePs)
{
    // Nothing due, nothing ready, nothing stale: the whole stage
    // would fall through without touching state.
    if (readyCount == 0 && staleSeqs.empty()
        && !mshrReleases.due(curCycle) && !timedReady.due(curCycle))
        return;

    // Release MSHRs of returned misses before selecting. (Returned
    // loads released their LSQ slots in doComplete this tick —
    // their release cycle is their completion cycle.)
    mshrReleases.drainUpTo(curCycle, [](std::uint8_t) {});

    // Wakeups whose operand time has arrived set their ready bit;
    // the find-first-set scan over the ready words then replays the
    // old linear select's oldest-first order over exactly the
    // issuable entries.
    timedReady.drainUpTo(curCycle, [&](const TimedReady &tr) {
        if (bitTest(iqInUseW, tr.slot) && iqSeq[tr.slot] == tr.seq) {
            const std::size_t rp = ringPos(tr.seq);
            if (!bitTest(readyW, rp)) {
                bitSet(readyW, rp);
                ++readyCount;
            }
        }
    });

    unsigned issued = 0;
    unsigned mem_issued = 0;
    // A stale (externally completed, already committed) entry's bit
    // sits below the head; start the age scan at the oldest of the
    // two so its reap point is still visited in order.
    InstSeq scan_from = robHeadSeq;
    if (!staleSeqs.empty() && staleSeqs.front() < scan_from)
        scan_from = staleSeqs.front();
    forEachReady(scan_from, robHeadSeq + robOcc, [&](InstSeq seq) {
        if (issued >= cfg.width)
            return false;

        // The old linear select erased externally completed entries
        // as its age-ordered scan passed them; reaching seq with
        // issue slots to spare means the scan passed everything
        // older first.
        reapStaleBefore(seq);

        if (robOcc == 0 || seq < robHeadSeq
            || bitTest(robCompletedW, ringPos(seq))) {
            // This entry is itself externally completed (early
            // branch resolution): the scan reached it, drop it.
            const auto it = std::find(staleSeqs.begin(),
                                      staleSeqs.end(), seq);
            panic_if(it == staleSeqs.end(),
                     "completed IQ entry missing from the stale list");
            const auto at = it - staleSeqs.begin();
            const int slot = staleSlots[at];
            staleSeqs.erase(it);
            staleSlots.erase(staleSlots.begin() + at);
            dropStaleSlot(slot);
            return true;
        }

        const std::size_t pos = ringPos(seq);
        const int slot = robIqSlot[pos];
        const TraceInst &inst = trInsts[seq.count()];
        const std::uint8_t fl = trFlags[seq.count()];
        const bool injected = bitTest(iqInjectedW, slot);

        const bool is_mem = (fl & kDecMem) && !injected;
        if (is_mem && mem_issued >= cfg.l1dPorts) {
            // Port-blocked: the bit stays set, and the monotonic
            // scan will not revisit it until the next tick — the
            // same deferral the old select's scratch re-push gave.
            return true;
        }

        Cycles lat_total{};
        if (injected) {
            // MarkReady injection: the value travels with the
            // instruction; issuing just writes it back.
            lat_total = Cycles{1};
        } else if (fl & kDecLoad) {
            const bool l1_hit = hier.l1().probe(inst.addr);
            if (!l1_hit && mshrReleases.size() >= cfg.mshrs)
                return true; // no MSHR for the miss; bit stays set
            auto res = hier.access(inst.addr, false, curCycle);
            lat_total = res.latency;
            if (res.level != MemLevel::L1)
                mshrReleases.push(curCycle, curCycle + lat_total, 0);
        } else if (fl & kDecStore) {
            lat_total = Cycles{1}; // address generation; data at commit
        } else {
            lat_total = inst.execLatency();
        }

        bitClear(readyW, pos);
        --readyCount;
        bitSet(robIssuedW, pos);
        robValueReadyAt[pos] = curCycle + lat_total + cfg.wakeupLatency;
        const Cycles complete_at = curCycle + cfg.schedDepth + lat_total;
        completions.push(
            curCycle, complete_at,
            packCompletion(seq, (fl & kDecLoad) != 0 && !injected));
        wakeWaiters(pos);
        robIqSlot[pos] = -1;
        freeIqSlot(slot);

        if (is_mem)
            ++mem_issued;
        ++issued;
        return true;
    });
    if (issued < cfg.width) {
        // The old scan would have walked to the end of the queue.
        reapStaleBefore(InstSeq::max());
    }
}

OooCore::DispatchBlock
OooCore::dispatchBlock() const
{
    if (fqOcc == 0)
        return DispatchBlock::Empty;
    const InstSeq fseq = fetchSeq - fqOcc;
    if (fqRenameReadyAt[fqPos(fseq)] > curCycle)
        return DispatchBlock::Empty;
    if (earlyResolved && *earlyResolved == fseq)
        return DispatchBlock::ConsumesEarly;
    const std::uint8_t fl = trFlags[fseq.count()];
    const bool is_syscall = fl & kDecSyscall;
    if (is_syscall && robOcc != 0)
        return DispatchBlock::SyscallDrain;
    if (robOcc >= cfg.robSize)
        return DispatchBlock::RobFull;
    const bool injected = bitTest(fqInjectedW, fqPos(fseq));
    const bool port_steal = injected && style == InjectionStyle::PortSteal;
    const bool needs_iq = !is_syscall && !port_steal;
    if (needs_iq && iqCount >= cfg.iqSize)
        return DispatchBlock::IqFull;
    const bool needs_lsq = (fl & kDecMem) && !injected;
    if (needs_lsq && lsqOcc >= cfg.lsqSize)
        return DispatchBlock::LsqFull;
    return DispatchBlock::None;
}

void
OooCore::doDispatch(TimePs)
{
    unsigned dispatched = 0;
    while (dispatched < cfg.width && fqOcc != 0) {
        const InstSeq fseq = fetchSeq - fqOcc;
        const std::size_t fpos = fqPos(fseq);
        if (fqRenameReadyAt[fpos] > curCycle)
            break;

        const TraceInst &inst = trInsts[fseq.count()];
        const std::uint8_t fl = trFlags[fseq.count()];
        bool injected = bitTest(fqInjectedW, fpos);
        if (earlyResolved && *earlyResolved == fseq) {
            injected = true;
            earlyResolved.reset();
            ++st.injected;
        }

        const bool is_syscall = fl & kDecSyscall;
        if (is_syscall && robOcc != 0)
            break; // serialize: drain before dispatching

        if (robOcc >= cfg.robSize) {
            ++st.robFullStalls;
            break;
        }
        const bool port_steal =
            injected && style == InjectionStyle::PortSteal;
        const bool needs_iq = !is_syscall && !port_steal;
        if (needs_iq && iqCount >= cfg.iqSize) {
            ++st.iqFullStalls;
            break;
        }
        const bool needs_lsq = (fl & kDecMem) && !injected;
        if (needs_lsq && lsqOcc >= cfg.lsqSize) {
            ++st.lsqFullStalls;
            break;
        }

        // Allocate the ROB tail entry (in-flight seqs stay
        // contiguous, so the ring position follows from the seq).
        if (robOcc == 0)
            robHeadSeq = fseq;
        panic_if(fseq != robHeadSeq + robOcc,
                 "non-contiguous ROB allocation at %llu",
                 static_cast<unsigned long long>(fseq));
        const std::size_t pos = ringPos(fseq);
        bitClear(robIssuedW, pos);
        bitClear(robCompletedW, pos);
        bitClear(robInjectedW, pos);
        robFirstWaiter[pos] = -1;
        robIqSlot[pos] = -1;
        robValueReadyAt[pos] = Cycles{};
        if (injected)
            bitSet(robInjectedW, pos);

        if (port_steal || is_syscall) {
            // Injected results complete at rename (port stealing);
            // syscalls execute in the handler, not the pipeline.
            bitSet(robIssuedW, pos);
            robValueReadyAt[pos] = curCycle + 1;
            completions.push(curCycle, curCycle + 1,
                             packCompletion(fseq, false));
        } else {
            const int slot = allocIqSlot();
            iqSeq[slot] = fseq;
            if (injected)
                bitSet(iqInjectedW, slot);
            if (!injected) {
                const RegId srcs[2] = {inst.src1, inst.src2};
                for (int s = 0; s < 2; ++s) {
                    if (srcs[s] == invalidReg)
                        continue;
                    if (!(renameInFlightW >> srcs[s] & 1))
                        continue; // value already architectural
                    const InstSeq prod = renameProducer[srcs[s]];
                    Cycles r{};
                    if (srcStatus(prod, r)) {
                        (s == 0 ? iqSrcReady0 : iqSrcReady1)[slot] = r;
                    } else {
                        // Producer still executing: chain onto its
                        // waiter list for an issue-time wakeup.
                        const std::size_t prod_pos = robPosChecked(prod);
                        if (s == 0) {
                            bitSet(iqPend0W, slot);
                            iqSrcProd0[slot] = prod;
                            iqNextWaiter0[slot] =
                                robFirstWaiter[prod_pos];
                        } else {
                            bitSet(iqPend1W, slot);
                            iqSrcProd1[slot] = prod;
                            iqNextWaiter1[slot] =
                                robFirstWaiter[prod_pos];
                        }
                        robFirstWaiter[prod_pos] = slot * 2 + s;
                    }
                }
            }
            if (!bitTest(iqPend0W, slot) && !bitTest(iqPend1W, slot)) {
                const Cycles at =
                    std::max(iqSrcReady0[slot], iqSrcReady1[slot]);
                if (at <= curCycle) {
                    // Operands already architectural: the entry is
                    // issuable at the next doIssue — the same tick a
                    // clamped wakeup would have surfaced it — so set
                    // the ready bit directly and skip the ring.
                    const std::size_t rp = ringPos(fseq);
                    if (!bitTest(readyW, rp)) {
                        bitSet(readyW, rp);
                        ++readyCount;
                    }
                } else {
                    timedReady.push(curCycle, at, {fseq, slot});
                }
            }
            robIqSlot[pos] = slot;
            if (needs_lsq)
                ++lsqOcc;
        }

        if (fl & kDecWritesReg) {
            renameProducer[inst.dst] = fseq;
            renameInFlightW |= std::uint64_t{1} << inst.dst;
        }

        ++robOcc;
        --fqOcc;
        ++dispatched;
    }
}

void
OooCore::doFetch(TimePs now)
{
    if (fetchSeq >= trace->endSeq())
        return;

    if (stalledBranch) {
        // Figure 5 corner case: a retired instance of the branch may
        // arrive on a result FIFO before the core resolves it.
        if (hooks != nullptr) {
            auto arrival =
                hooks->externalBranchResolve(*stalledBranch, now);
            if (arrival && *arrival <= now) {
                const InstSeq bseq = *stalledBranch;
                hooks->confirmEarlyResolve(bseq, now);
                ++st.earlyResolves;
                stalledBranch.reset();
                fetchResumeAt = std::max(fetchResumeAt, curCycle + 1);
                if (robOcc != 0 && bseq >= robHeadSeq
                    && bseq < robHeadSeq + robOcc) {
                    const std::size_t pos = ringPos(bseq);
                    if (!bitTest(robCompletedW, pos)) {
                        bitSet(robCompletedW, pos);
                        bitSet(robInjectedW, pos);
                        bitSet(robIssuedW, pos);
                        robValueReadyAt[pos] = curCycle + 1;
                        wakeWaiters(pos);
                        if (robIqSlot[pos] != -1)
                            markIqStale(bseq, robIqSlot[pos]);
                    }
                } else {
                    // Still in the front-end pipe: complete it as an
                    // injected instruction at dispatch.
                    earlyResolved = bseq;
                }
            }
        }
        if (stalledBranch) {
            ++st.fetchStallBranch;
            return;
        }
    }

    if (curCycle < fetchResumeAt || stalledSyscall)
        return;

    // The fetch group's leading access probes the I-cache; a miss
    // stalls the front end while the block fills through L2.
    if (icache && fqOcc < fetchQueueCap) {
        const Addr pc = trInsts[fetchSeq.count()].pc;
        auto probe = icache->access(pc, false);
        if (!probe.hit) {
            ++st.icacheMisses;
            fetchResumeAt = curCycle + cfg.l1i.latency
                + hier.instrFill(pc, curCycle);
            return;
        }
    }

    // The fetch group: up to width instructions the fetch queue has
    // room for, clipped to the end of the trace, read straight from
    // the trace's instruction and pre-decoded flags arrays.
    const std::size_t room = fetchQueueCap - fqOcc;
    const InstSeq group_end = std::min(
        fetchSeq + std::min<std::size_t>(cfg.width, room),
        trace->endSeq());
    const Cycles rename_ready = curCycle + cfg.frontEndDepth;
    while (fetchSeq < group_end) {
        const TraceInst &inst = trInsts[fetchSeq.count()];
        const std::uint8_t fl = trFlags[fetchSeq.count()];

        FetchOutcome out;
        if (hooks != nullptr)
            out = hooks->onFetch(fetchSeq, now);

        bool end_group = false;
        bool mispred = false;
        const bool taken = fl & kDecTaken;
        if (out.injected) {
            ++st.injected;
            if (fl & kDecCondBr) {
                ++st.condBranches;
                // The injected outcome still trains the predictor
                // and history (hardware trains at retirement), so
                // the core predicts well when it later takes the
                // lead.
                bpred.predictAndTrain(inst.pc, taken, false);
            }
            if ((fl & kDecBranch) && taken) {
                btb.lookupAndTrain(inst.pc, inst.target);
                end_group = true;
            }
        } else if (fl & kDecCondBr) {
            ++st.condBranches;
            const bool pred = bpred.predictAndTrain(inst.pc, taken);
            bool btb_ok = true;
            if (taken)
                btb_ok = btb.lookupAndTrain(inst.pc, inst.target);
            if (pred != taken) {
                mispred = true;
            } else if (taken) {
                end_group = true;
                if (!btb_ok) {
                    ++st.btbMissRedirects;
                    fetchResumeAt =
                        curCycle + 1 + cfg.btbMissPenalty;
                }
            }
        } else if (fl & kDecUncondBr) {
            const bool btb_ok = btb.lookupAndTrain(inst.pc, inst.target);
            end_group = true;
            if (!btb_ok) {
                ++st.btbMissRedirects;
                fetchResumeAt = curCycle + 1 + cfg.btbMissPenalty;
            }
        } else if (fl & kDecSyscall) {
            stalledSyscall = true;
        }

        const std::size_t fpos = fqPos(fetchSeq);
        fqRenameReadyAt[fpos] = rename_ready;
        if (out.injected)
            bitSet(fqInjectedW, fpos);
        else
            bitClear(fqInjectedW, fpos);
        ++fqOcc;
        ++fetchSeq;

        if (mispred) {
            ++st.mispredicts;
            stalledBranch = fetchSeq - 1;
            break;
        }
        if (stalledSyscall || end_group)
            break;
    }
}

Cycles
OooCore::nextEventCycle() const
{
    // A tick is a provable no-op when every stage is inert and stays
    // inert: nothing completes or releases, the commit head is not
    // completed, no issue-queue entry can issue, dispatch is blocked
    // (or empty), and fetch is stalled. The returned bound is
    // conservative — the window may end before the next real event
    // (the caller simply resumes cycle-by-case stepping), never
    // after it.
    if (done())
        return curCycle;
    if (hooks != nullptr && stalledBranch)
        return curCycle; // polls external resolution every cycle
    if (!staleSeqs.empty())
        return curCycle; // a pending reap mutates IQ occupancy
    if (robOcc != 0 && bitTest(robCompletedW, ringPos(robHeadSeq)))
        return curCycle; // commits (or replays a commit-stall hook)

    // Cheap immediate-action checks run first: while the pipeline is
    // busy, dispatch or fetch almost always acts next tick, and the
    // answer is curCycle before the ready-mask scan or the event
    // rings are ever consulted.
    const DispatchBlock db = dispatchBlock();
    if (db == DispatchBlock::None || db == DispatchBlock::ConsumesEarly)
        return curCycle; // dispatch acts (or consumes the patch)
    if (fetchSeq < trace->endSeq() && !stalledBranch && !stalledSyscall
        && curCycle >= fetchResumeAt && fqOcc < fetchQueueCap)
        return curCycle; // fetch proceeds next tick

    Cycles next = Cycles::max();
    auto consider = [&next](Cycles c) {
        if (c < next)
            next = c;
    };

    if (!completions.empty())
        consider(completions.nextAt());
    if (!mshrReleases.empty())
        consider(mshrReleases.nextAt());
    if (!timedReady.empty())
        consider(timedReady.nextAt());

    // Issuable entries act immediately — unless every one is a load
    // blocked on a full MSHR file, which frees at
    // mshrReleases.nextAt() (already considered above). With the
    // stale list empty every ready bit is a live in-window entry.
    bool acts_now = false;
    forEachReady(robHeadSeq, robHeadSeq + robOcc, [&](InstSeq seq) {
        const std::size_t pos = ringPos(seq);
        if (bitTest(robCompletedW, pos)) {
            acts_now = true; // next doIssue reaps it
            return false;
        }
        const std::uint8_t fl = trFlags[seq.count()];
        if (!(fl & kDecLoad) || bitTest(iqInjectedW, robIqSlot[pos])) {
            acts_now = true; // issues next tick
            return false;
        }
        if (hier.l1().probe(trInsts[seq.count()].addr)
            || mshrReleases.size() < cfg.mshrs) {
            acts_now = true; // issues next tick
            return false;
        }
        return true;
    });
    if (acts_now)
        return curCycle;

    switch (db) {
      case DispatchBlock::Empty:
        if (fqOcc != 0)
            consider(fqRenameReadyAt[fqPos(fetchSeq - fqOcc)]);
        break;
      default:
        // SyscallDrain/RobFull/IqFull/LsqFull unblock through a
        // commit, issue, or release — all bounded by the events
        // considered above.
        break;
    }

    if (fetchSeq < trace->endSeq()) {
        if (stalledBranch || stalledSyscall) {
            // Resolution arrives via a completion (branch) or the
            // syscall's commit — bounded above.
        } else if (curCycle < fetchResumeAt) {
            consider(fetchResumeAt);
        }
        // Else the fetch queue is full (we returned curCycle above
        // otherwise), which drains through dispatch — bounded above.
    }

    if (next == Cycles::max())
        return curCycle; // no provable bound; step normally
    return next;
}

Cycles
OooCore::skipIdleCycles(Cycles max_ticks)
{
    lastSkip = SkipWindow{};
    if (max_ticks == Cycles{} || done())
        return Cycles{};
    if (hooks != nullptr && hooks->parked())
        return Cycles{};

    Cycles ev = nextEventCycle();
    if (ev <= curCycle)
        return Cycles{};
    Cycles n = ev - curCycle;
    if (max_ticks < n)
        n = max_ticks;

    // The pipeline state is frozen across the window, so every
    // elided tick would have incremented exactly the same stall
    // counters: the (stable) first failing dispatch check, and the
    // mispredict fetch stall when no hooks poll for it.
    SkipWindow w;
    w.ticks = n;
    switch (dispatchBlock()) {
      case DispatchBlock::RobFull:
        w.robFull = true;
        break;
      case DispatchBlock::IqFull:
        w.iqFull = true;
        break;
      case DispatchBlock::LsqFull:
        w.lsqFull = true;
        break;
      default:
        break;
    }
    w.branchStall = stalledBranch.has_value() && hooks == nullptr
        && fetchSeq < trace->endSeq();

    curCycle += n;
    st.cycles += n;
    if (w.robFull)
        st.robFullStalls += n;
    if (w.iqFull)
        st.iqFullStalls += n;
    if (w.lsqFull)
        st.lsqFullStalls += n;
    if (w.branchStall)
        st.fetchStallBranch += n;
    lastSkip = w;
    skippedTotal += n;
    return n;
}

void
OooCore::rewindIdleTicks(Cycles n)
{
    if (n == Cycles{})
        return;
    panic_if(n > lastSkip.ticks,
             "rewinding %llu ticks but the last window elided %llu",
             static_cast<unsigned long long>(n),
             static_cast<unsigned long long>(lastSkip.ticks));
    curCycle = curCycle - n;
    st.cycles = st.cycles - n;
    if (lastSkip.robFull)
        st.robFullStalls = st.robFullStalls - n;
    if (lastSkip.iqFull)
        st.iqFullStalls = st.iqFullStalls - n;
    if (lastSkip.lsqFull)
        st.lsqFullStalls = st.lsqFullStalls - n;
    if (lastSkip.branchStall)
        st.fetchStallBranch = st.fetchStallBranch - n;
    lastSkip.ticks = lastSkip.ticks - n;
    skippedTotal = skippedTotal - n;
}

} // namespace contest
