#include "contest/system.hh"

#include <algorithm>
#include <utility>

#include "common/env.hh"
#include "common/log.hh"

namespace contest
{

CoreId
earliestEdge(const std::vector<TimePs> &next_edge)
{
    const auto earliest =
        std::min_element(next_edge.begin(), next_edge.end());
    panic_if(earliest == next_edge.end() || *earliest == TimePs::max(),
             "contest deadlock: every core is parked");
    return static_cast<CoreId>(earliest - next_edge.begin());
}

ContestSystem::ContestSystem(std::vector<CoreConfig> core_configs,
                             TracePtr trace_ptr,
                             const ContestConfig &contest_config)
    : configs(std::move(core_configs)), trace(std::move(trace_ptr)),
      cfg(contest_config)
{
    fatal_if(configs.empty(), "ContestSystem needs at least one core");
    fatal_if(!trace || trace->empty(),
             "ContestSystem needs a non-empty trace");

    const auto n = static_cast<unsigned>(configs.size());
    storeQ = std::make_unique<SyncStoreQueue>(n,
                                              cfg.storeQueueCapacity);
    excCoord = std::make_unique<ExceptionCoordinator>(
        n, cfg.syscallHandlerPs);
    leadCounts.assign(n, 0);

    for (CoreId i = 0; i < n; ++i)
        units.push_back(
            std::make_unique<CoreContestUnit>(i, cfg, this, n));
    for (CoreId i = 0; i < n; ++i) {
        cores.push_back(
            std::make_unique<OooCore>(configs[i], trace, i));
        cores[i]->attachContest(units[i].get(), cfg.injectionStyle);
        // Section 4.2: private levels are write-through in
        // contesting mode.
        cores[i]->memory().setWriteThrough(true);
        units[i]->setCore(cores[i].get());
    }

    // Section 4.1.4 static condition: the peak retirement rate of
    // any core should be sustainable by every other core.
    double max_peak = 0.0;
    for (const auto &c : configs)
        max_peak = std::max(max_peak, c.peakIps());
    for (const auto &c : configs) {
        if (c.peakIps() < max_peak * 0.5) {
            inform("core type '%s' (peak %.1f inst/ns) may be a "
                   "saturated lagger (system peak %.1f inst/ns)",
                   c.name.c_str(), c.peakIps(), max_peak);
        }
    }
}

ContestSystem::~ContestSystem() = default;

void
ContestSystem::broadcast(CoreId from, InstSeq seq, TimePs now)
{
    for (CoreId c = 0; c < units.size(); ++c) {
        if (c == from || units[c]->parked())
            continue;
        units[c]->receiveResult(from, seq, now + cfg.grbLatencyPs);
    }
}

void
ContestSystem::corePark(CoreId core, TimePs now)
{
    storeQ->dropCore(core);
    excCoord->dropCore(core, now);
    ++parkEvents;
    inform("core %u ('%s') parked as a saturated lagger at %.1f ns",
           core, configs[core].name.c_str(),
           static_cast<double>(now) / psPerNs);
}

void
ContestSystem::noteRetire(CoreId core, InstSeq seq)
{
    if (seq != frontier)
        return; // a lagger re-retiring an already-led instruction
    if (frontier > InstSeq{} && core != lastLeader)
        ++leadChanges;
    lastLeader = core;
    ++leadCounts[core];
    ++frontier;
}

void
ContestSystem::rewindPastEdge(RunState &rs, CoreId c, TimePs t,
                              CoreId pick)
{
    // A skipping core's elided ticks happen "eagerly" when they are
    // scheduled; the ones that would have ordered at or after the
    // (time, id) edge (t, pick) have not really elapsed: elided tick
    // i sat at rec.tickedAt + i*period and really elapsed iff its
    // edge ordered before (t, pick).
    RunState::SkipRecord &rec = rs.skipRec[c];
    if (rec.scheduled == Cycles{})
        return;
    std::uint64_t step = cores[c]->periodPs().count();
    std::uint64_t d = (t - rec.tickedAt).count();
    std::uint64_t num_lt = d > 0 ? (d - 1) / step : 0;
    std::uint64_t num_eq =
        (c < pick && d > 0 && d % step == 0) ? 1 : 0;
    std::uint64_t executed = num_lt + num_eq;
    if (executed < rec.scheduled.count()) {
        cores[c]->rewindIdleTicks(rec.scheduled - Cycles{executed});
        rec.scheduled = Cycles{executed};
    }
}

void
ContestSystem::noteTickForWatchdog(RunState &rs, Cycles skipped)
{
    // Deadlock watchdog: simulated ticks (including fast-forwarded
    // ones) since the retire frontier last advanced, so skipping
    // can neither mask nor falsely trigger the panic.
    if (frontier != rs.lastFrontier) {
        rs.lastFrontier = frontier;
        // Elided ticks follow the retiring tick, so they open the
        // next stuck window.
        rs.stuckTicks = skipped.count();
    } else {
        rs.stuckTicks += 1 + skipped.count();
    }
    if (!rs.finished && rs.stuckTicks > cfg.deadlockStuckTicks)
        panic("contest deadlock: no retirement in %llu ticks "
              "(frontier %llu of %zu)",
              static_cast<unsigned long long>(cfg.deadlockStuckTicks),
              static_cast<unsigned long long>(frontier),
              trace->size());
}

void
ContestSystem::seqStep(RunState &rs)
{
    const auto n = static_cast<CoreId>(cores.size());
    const CoreId pick = earliestEdge(rs.nextEdge);
    const TimePs t = rs.nextEdge[pick];

    cores[pick]->tick(t);

    Cycles skipped{};
    if (!rs.noSkip && !cores[pick]->done())
        skipped = cores[pick]->skipIdleCycles(Cycles::max());
    rs.skipRec[pick] = RunState::SkipRecord{t, skipped};
    rs.nextEdge[pick] = t
                        + TimePs{cores[pick]->periodPs().count()
                                 * (skipped.count() + 1)};

    if (cores[pick]->done()) {
        rs.finished = true;
        rs.finisher = pick;
        rs.finishTime = t + cores[pick]->periodPs();
    }

    if (parkEvents != rs.parksSeen) {
        // Someone parked during this tick (a broadcast from
        // `pick` overflowed their FIFO). Retire their clock edge and
        // rewind any elided ticks that would have ordered after this
        // tick's (t, pick) edge.
        rs.parksSeen = parkEvents;
        for (CoreId c = 0; c < n; ++c) {
            if (!units[c]->parked() || rs.nextEdge[c] == TimePs::max())
                continue;
            rs.nextEdge[c] = TimePs::max();
            rewindPastEdge(rs, c, t, pick);
        }
    }

    noteTickForWatchdog(rs, skipped);

    if (rs.finished) {
        // Per-cycle stepping stops every other core at its last
        // edge before (t, finisher); drop the losers' eagerly
        // elided ticks that would have ordered after it.
        for (CoreId c = 0; c < n; ++c)
            if (c != rs.finisher)
                rewindPastEdge(rs, c, t, rs.finisher);
    }
}

ContestResult
ContestSystem::run()
{
    const auto n = static_cast<CoreId>(cores.size());

    // Every core's first clock edge is at time 0.
    RunState rs(n);
    rs.noSkip = simNoSkip();
    rs.parksSeen = parkEvents;
    while (!rs.finished)
        seqStep(rs);
    return collectResult(rs);
}

ContestResult
ContestSystem::collectResult(const RunState &rs)
{
    const auto n = static_cast<CoreId>(cores.size());
    ContestResult result;
    result.timePs = rs.finishTime;
    result.ipt = instPerNs(trace->endSeq(), rs.finishTime);
    for (CoreId c = 0; c < n; ++c) {
        result.coreStats.push_back(cores[c]->stats());
        result.unitStats.push_back(units[c]->stats());
        result.leadFraction.push_back(
            static_cast<double>(leadCounts[c])
            / static_cast<double>(trace->size()));

        // A parked core stops burning static power when it leaves
        // contesting mode.
        TimePs powered = units[c]->stats().saturated
            ? units[c]->stats().parkedAt
            : rs.finishTime;
        ActivityCounts activity = baseActivity(*cores[c]);
        activity.grbBroadcasts = units[c]->stats().broadcasts;
        activity.injections = cores[c]->stats().injected;
        result.energy.push_back(
            estimateEnergy(configs[c], cores[c]->stats(), activity,
                           powered));
    }
    result.leadChanges = leadChanges;
    result.mergedStores = storeQ->mergedCount();
    result.exceptionsHandled = excCoord->handled();

    inform("contest finished: core %u ('%s') first at %.1f ns, "
           "IPT %.3f, %llu lead changes",
           rs.finisher, configs[rs.finisher].name.c_str(),
           static_cast<double>(rs.finishTime) / psPerNs, result.ipt,
           static_cast<unsigned long long>(leadChanges));
    return result;
}

SingleRunResult
runSingle(const CoreConfig &config, TracePtr trace,
          OooCore::RetireCallback on_retire)
{
    fatal_if(!trace || trace->empty(),
             "runSingle needs a non-empty trace");
    OooCore core(config, trace);
    core.setRetireCallback(std::move(on_retire));
    const bool no_skip = simNoSkip();
    const std::uint64_t step = core.periodPs().count();
    TimePs t{};
    while (!core.done()) {
        core.tick(t);
        std::uint64_t ticks = 1;
        if (!no_skip && !core.done())
            ticks += core.skipIdleCycles(Cycles::max()).count();
        t += TimePs{step * ticks};
    }
    SingleRunResult r;
    r.timePs = t;
    r.ipt = instPerNs(trace->endSeq(), t);
    r.stats = core.stats();
    r.energy = estimateEnergy(config, core.stats(), baseActivity(core),
                              t);
    return r;
}

ActivityCounts
baseActivity(const OooCore &core)
{
    ActivityCounts activity;
    activity.l1Accesses = core.memory().l1().accesses();
    activity.l1Misses = core.memory().l1().misses();
    activity.l2Accesses = core.memory().l2().accesses();
    activity.l2Misses = core.memory().l2().misses();
    return activity;
}

} // namespace contest
