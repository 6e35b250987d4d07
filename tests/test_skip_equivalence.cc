/**
 * @file
 * Idle-cycle skipping must be invisible: every run with
 * fast-forwarding enabled has to produce results bit-identical to
 * the per-cycle reference mode (CONTEST_NO_SKIP=1) — timings, every
 * pipeline counter, energy numbers, lead fractions, the Runner's
 * region series. A seed sweep over single-core runs and contests
 * (including a parking pair, a drop-oldest pair and an
 * interrupt-driven refork config) pins that equivalence down.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "contest/system.hh"
#include "core/palette.hh"
#include "harness/runner.hh"
#include "trace/generator.hh"

namespace contest
{
namespace
{

/** Run @p fn with CONTEST_NO_SKIP set or cleared. */
template <typename Fn>
auto
withSkipMode(bool no_skip, Fn fn) -> decltype(fn())
{
    if (no_skip)
        setenv("CONTEST_NO_SKIP", "1", 1);
    else
        unsetenv("CONTEST_NO_SKIP");
    auto r = fn();
    unsetenv("CONTEST_NO_SKIP");
    return r;
}

void
expectSameStats(const CoreStats &a, const CoreStats &b,
                const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.retired, b.retired) << what;
    EXPECT_EQ(a.injected, b.injected) << what;
    EXPECT_EQ(a.condBranches, b.condBranches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
    EXPECT_EQ(a.earlyResolves, b.earlyResolves) << what;
    EXPECT_EQ(a.btbMissRedirects, b.btbMissRedirects) << what;
    EXPECT_EQ(a.syscalls, b.syscalls) << what;
    EXPECT_EQ(a.icacheMisses, b.icacheMisses) << what;
    EXPECT_EQ(a.fetchStallBranch, b.fetchStallBranch) << what;
    EXPECT_EQ(a.robFullStalls, b.robFullStalls) << what;
    EXPECT_EQ(a.iqFullStalls, b.iqFullStalls) << what;
    EXPECT_EQ(a.lsqFullStalls, b.lsqFullStalls) << what;
    EXPECT_EQ(a.storeQueueStalls, b.storeQueueStalls) << what;
    EXPECT_EQ(a.syscallStalls, b.syscallStalls) << what;
}

void
expectSameEnergy(const EnergyBreakdown &a, const EnergyBreakdown &b,
                 const char *what)
{
    // Bit-identical, not merely close: the energy model consumes
    // only counters, and every counter must match exactly.
    EXPECT_EQ(a.staticNj, b.staticNj) << what;
    EXPECT_EQ(a.pipelineNj, b.pipelineNj) << what;
    EXPECT_EQ(a.cacheNj, b.cacheNj) << what;
    EXPECT_EQ(a.bpredNj, b.bpredNj) << what;
    EXPECT_EQ(a.squashNj, b.squashNj) << what;
    EXPECT_EQ(a.contestNj, b.contestNj) << what;
}

void
expectSameContest(const ContestResult &a, const ContestResult &b,
                  const char *what)
{
    EXPECT_EQ(a.timePs, b.timePs) << what;
    EXPECT_EQ(a.ipt, b.ipt) << what;
    EXPECT_EQ(a.leadChanges, b.leadChanges) << what;
    EXPECT_EQ(a.mergedStores, b.mergedStores) << what;
    EXPECT_EQ(a.exceptionsHandled, b.exceptionsHandled) << what;
    EXPECT_EQ(a.interruptsHandled, b.interruptsHandled) << what;
    ASSERT_EQ(a.coreStats.size(), b.coreStats.size()) << what;
    for (std::size_t c = 0; c < a.coreStats.size(); ++c) {
        expectSameStats(a.coreStats[c], b.coreStats[c], what);
        EXPECT_EQ(a.leadFraction[c], b.leadFraction[c]) << what;
        EXPECT_EQ(a.unitStats[c].paired, b.unitStats[c].paired)
            << what;
        EXPECT_EQ(a.unitStats[c].discarded, b.unitStats[c].discarded)
            << what;
        EXPECT_EQ(a.unitStats[c].broadcasts,
                  b.unitStats[c].broadcasts)
            << what;
        EXPECT_EQ(a.unitStats[c].saturated, b.unitStats[c].saturated)
            << what;
        EXPECT_EQ(a.unitStats[c].parkedAt, b.unitStats[c].parkedAt)
            << what;
        expectSameEnergy(a.energy[c], b.energy[c], what);
    }
}

TEST(SkipEquivalence, SingleCoreSeedSweep)
{
    for (std::uint64_t seed : {2009ull, 7ull, 4242ull}) {
        for (const char *bench : {"gcc", "mcf", "crafty"}) {
            for (const char *core : {"twolf", "mcf", "vortex"}) {
                auto trace = makeBenchmarkTrace(bench, seed, 15000);
                const auto &cfg = coreConfigByName(core);
                auto fast = withSkipMode(false, [&] {
                    return runSingle(cfg, trace);
                });
                auto ref = withSkipMode(true, [&] {
                    return runSingle(cfg, trace);
                });
                std::string what = std::string(bench) + " on " + core
                    + " seed " + std::to_string(seed);
                EXPECT_EQ(fast.timePs, ref.timePs) << what;
                EXPECT_EQ(fast.ipt, ref.ipt) << what;
                expectSameStats(fast.stats, ref.stats, what.c_str());
                expectSameEnergy(fast.energy, ref.energy,
                                 what.c_str());
            }
        }
    }
}

TEST(SkipEquivalence, RunnerSingleAndRegionSeries)
{
    // Runner::single feeds its region log from runSingle's retire
    // observer. Figure 1 and the pair ranking fuse that series, so
    // it must match per-cycle stepping region for region.
    const std::pair<const char *, const char *> cells[] = {
        {"mcf", "mcf"}, {"gcc", "twolf"}, {"crafty", "vortex"}};
    for (const auto &[bench, core] : cells) {
        // A fresh Runner per mode, or the memo would answer the
        // second mode with the first one's run.
        auto run = [&]() -> LoggedRun {
            ThreadPool pool(1);
            Runner runner({15000, 2009}, &pool);
            return runner.single(bench, core);
        };
        LoggedRun fast = withSkipMode(false, run);
        LoggedRun ref = withSkipMode(true, run);
        std::string what = std::string(bench) + " on " + core;
        EXPECT_EQ(fast.result.timePs, ref.result.timePs) << what;
        EXPECT_EQ(fast.result.ipt, ref.result.ipt) << what;
        expectSameStats(fast.result.stats, ref.result.stats,
                        what.c_str());
        expectSameEnergy(fast.result.energy, ref.result.energy,
                         what.c_str());
        EXPECT_GT(fast.regions->size(), 0u) << what;
        EXPECT_EQ(fast.regions->series(), ref.regions->series())
            << what;
    }
}

TEST(SkipEquivalence, SingleCoreActuallySkips)
{
    // The equivalence sweep would pass vacuously if skipIdleCycles
    // never elided anything; prove the fast path engages on a
    // memory-bound core.
    auto trace = makeBenchmarkTrace("mcf", 2009, 15000);
    const auto &cfg = coreConfigByName("mcf");
    unsetenv("CONTEST_NO_SKIP");
    OooCore core(cfg, trace);
    const std::uint64_t step = core.periodPs().count();
    TimePs now{};
    while (!core.done()) {
        core.tick(now);
        std::uint64_t ticks = 1;
        if (!core.done())
            ticks += core.skipIdleCycles(Cycles::max()).count();
        now += TimePs{step * ticks};
    }
    EXPECT_GT(core.idleSkipped(), Cycles{});
    // Elided ticks still count as simulated cycles.
    EXPECT_LT(core.idleSkipped(), core.stats().cycles);
}

TEST(SkipEquivalence, MaskEdgeConfigs)
{
    // Ring-mask edge cases under skipping: a >64-entry window whose
    // ready/completed masks span multiple words ("wide"), and a tiny
    // window whose ring positions wrap dozens of times per run
    // ("wrap"). Skipping must stay invisible for both.
    CoreConfig wide = coreConfigByName("gcc"); // robSize 256
    wide.name = "wide";
    CoreConfig wrap = coreConfigByName("gzip");
    wrap.name = "wrap";
    wrap.robSize = 24;
    wrap.iqSize = 12;
    wrap.lsqSize = 8;
    wrap.validate();
    for (std::uint64_t seed : {2009ull, 7ull}) {
        for (const char *bench : {"mcf", "crafty"}) {
            auto trace = makeBenchmarkTrace(bench, seed, 15000);
            for (const CoreConfig *cfg : {&wide, &wrap}) {
                auto fast = withSkipMode(false, [&] {
                    return runSingle(*cfg, trace);
                });
                auto ref = withSkipMode(true, [&] {
                    return runSingle(*cfg, trace);
                });
                std::string what = std::string(bench) + " on "
                    + cfg->name + " seed " + std::to_string(seed);
                EXPECT_EQ(fast.timePs, ref.timePs) << what;
                expectSameStats(fast.stats, ref.stats, what.c_str());
                expectSameEnergy(fast.energy, ref.energy,
                                 what.c_str());
            }
        }
    }
}

TEST(SkipEquivalence, ContestSeedSweep)
{
    for (std::uint64_t seed : {2009ull, 7ull}) {
        for (const char *bench : {"gcc", "twolf"}) {
            auto trace = makeBenchmarkTrace(bench, seed, 15000);
            auto run = [&] {
                ContestSystem sys({coreConfigByName("twolf"),
                                   coreConfigByName("gzip")},
                                  trace);
                return sys.run();
            };
            auto fast = withSkipMode(false, run);
            auto ref = withSkipMode(true, run);
            std::string what =
                std::string(bench) + " seed " + std::to_string(seed);
            expectSameContest(fast, ref, what.c_str());
        }
    }
}

TEST(SkipEquivalence, ParkingPair)
{
    // vortex+mcf on a tiny FIFO parks the lagger mid-run; the
    // park-time rewind of eagerly-applied skip windows must keep the
    // parked core's counters identical to per-cycle stepping.
    auto trace = makeBenchmarkTrace("crafty", 2009, 30000);
    auto run = [&] {
        ContestConfig cfg;
        cfg.fifoCapacity = 64;
        cfg.parkSaturatedLaggers = true;
        ContestSystem sys({coreConfigByName("vortex"),
                           coreConfigByName("mcf")},
                          trace, cfg);
        return sys.run();
    };
    auto fast = withSkipMode(false, run);
    auto ref = withSkipMode(true, run);
    EXPECT_TRUE(fast.unitStats[1].saturated);
    expectSameContest(fast, ref, "parking pair");
}

TEST(SkipEquivalence, DropOldestPair)
{
    // With parking disabled, an overflowing FIFO drops its oldest
    // buffered result inside receiveResult instead of parking.
    auto trace = makeBenchmarkTrace("crafty", 7, 20000);
    auto run = [&] {
        ContestConfig cfg;
        cfg.fifoCapacity = 64;
        cfg.parkSaturatedLaggers = false;
        ContestSystem sys({coreConfigByName("vortex"),
                           coreConfigByName("mcf")},
                          trace, cfg);
        return sys.run();
    };
    auto fast = withSkipMode(false, run);
    auto ref = withSkipMode(true, run);
    expectSameContest(fast, ref, "drop-oldest pair");
}

TEST(SkipEquivalence, InterruptRefork)
{
    // Interrupts bound every skip window (the service edge must be
    // picked live); the terminate-and-refork path must land on the
    // same refork positions in both modes.
    auto trace = makeBenchmarkTrace("gcc", 2009, 20000);
    auto run = [&] {
        ContestConfig cfg;
        cfg.interruptPeriodPs = TimePs{3'000'000};
        ContestSystem sys({coreConfigByName("twolf"),
                           coreConfigByName("gzip")},
                          trace, cfg);
        return sys.run();
    };
    auto fast = withSkipMode(false, run);
    auto ref = withSkipMode(true, run);
    EXPECT_GT(fast.interruptsHandled, 0u);
    expectSameContest(fast, ref, "interrupt refork");
}

TEST(SkipEquivalence, ThreeWayContest)
{
    auto trace = makeBenchmarkTrace("parser", 7, 15000);
    auto run = [&] {
        ContestSystem sys({coreConfigByName("twolf"),
                           coreConfigByName("gzip"),
                           coreConfigByName("vpr")},
                          trace);
        return sys.run();
    };
    auto fast = withSkipMode(false, run);
    auto ref = withSkipMode(true, run);
    expectSameContest(fast, ref, "three-way");
}

} // namespace
} // namespace contest
