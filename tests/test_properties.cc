/**
 * @file
 * Parameterized property sweeps across the archetype and core
 * spaces: determinism, composition sanity, timing-model
 * monotonicities, and contesting invariants that must hold for
 * every combination.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "contest/system.hh"
#include "core/palette.hh"
#include "harness/region_log.hh"
#include "trace/generator.hh"

namespace contest
{
namespace
{

/** All six archetypes, used by several sweeps below. */
const PhaseKind allKinds[] = {
    PhaseKind::IlpCompute,  PhaseKind::SerialChain,
    PhaseKind::PointerChase, PhaseKind::Streaming,
    PhaseKind::Branchy,     PhaseKind::HotLoop,
};

TracePtr
archetypeTrace(PhaseKind kind, std::uint64_t n,
               std::uint64_t seed = 5)
{
    BenchmarkProfile p;
    p.name = phaseKindName(kind);
    p.syscallGap = 0;
    p.phases = {PhaseSpec{PhaseParams::canonical(kind), 1.0}};
    TraceGenerator gen(p, seed);
    return gen.generate(n);
}

/** Every archetype on every palette core must complete and retire
 *  in order with a sane IPC. */
class ArchetypeOnCore
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(ArchetypeOnCore, RunsToCompletionInOrder)
{
    auto [kind_idx, core_idx] = GetParam();
    auto trace = archetypeTrace(allKinds[kind_idx], 8000);
    const auto &cfg = appendixAPalette()[core_idx];

    OooCore core(cfg, trace);
    InstSeq expected{};
    core.setRetireCallback([&](InstSeq seq, TimePs) {
        ASSERT_EQ(seq, expected);
        ++expected;
    });
    TimePs now{};
    while (!core.done()) {
        core.tick(now);
        now += core.periodPs();
    }
    EXPECT_EQ(core.retired(), trace->size());
    EXPECT_GT(core.stats().ipc(), 0.01) << cfg.name;
    EXPECT_LE(core.stats().ipc(),
              static_cast<double>(cfg.width))
        << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArchetypeOnCore,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(0, 1, 5, 6, 10)),
    [](const auto &info) {
        return std::string(
                   phaseKindName(
                       allKinds[std::get<0>(info.param)]))
            + "_on_"
            + appendixAPalette()[std::get<1>(info.param)].name;
    });

/** Determinism: every benchmark trace replays to identical cycle
 *  counts on a given core. */
class BenchmarkDeterminism
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(BenchmarkDeterminism, SameSeedSameCycles)
{
    auto trace = makeBenchmarkTrace(GetParam(), 77, 10000);
    auto run = [&]() {
        OooCore core(coreConfigByName("gcc"), trace);
        TimePs now{};
        while (!core.done()) {
            core.tick(now);
            now += core.periodPs();
        }
        return core.cycle();
    };
    EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkDeterminism,
    ::testing::Values("bzip", "crafty", "gap", "gcc", "gzip", "mcf",
                      "parser", "perl", "twolf", "vortex", "vpr"));

/** Timing-model monotonicity: widening one resource while holding
 *  the rest may not slow a core down (beyond tie noise). */
TEST(TimingMonotonicity, WiderMachineIsNotSlower)
{
    auto trace = archetypeTrace(PhaseKind::IlpCompute, 20000);
    CoreConfig narrow;
    narrow.width = 2;
    narrow.l1dPorts = 2;
    CoreConfig wide = narrow;
    wide.width = 6;
    wide.l1dPorts = 3;
    EXPECT_GE(runSingle(wide, trace).ipt,
              runSingle(narrow, trace).ipt * 0.999);
}

TEST(TimingMonotonicity, FasterClockIsFasterOnComputeCode)
{
    auto trace = archetypeTrace(PhaseKind::HotLoop, 20000);
    CoreConfig slow;
    slow.clockPeriodPs = TimePs{500};
    CoreConfig fast = slow;
    fast.clockPeriodPs = TimePs{250};
    // Cache/memory latencies are in cycles here, so halving the
    // period at fixed cycle counts must speed compute-bound code.
    EXPECT_GT(runSingle(fast, trace).ipt,
              runSingle(slow, trace).ipt * 1.5);
}

TEST(TimingMonotonicity, LowerWakeupHelpsSerialChains)
{
    auto trace = archetypeTrace(PhaseKind::SerialChain, 20000);
    CoreConfig lazy;
    lazy.wakeupLatency = Cycles{3};
    CoreConfig eager = lazy;
    eager.wakeupLatency = Cycles{};
    EXPECT_GT(runSingle(eager, trace).ipt,
              runSingle(lazy, trace).ipt * 1.3);
}

TEST(TimingMonotonicity, DeeperFrontEndHurtsMispredictHeavyCode)
{
    auto params = PhaseParams::canonical(PhaseKind::Branchy);
    params.randomSiteFrac = 0.5; // hard to predict
    BenchmarkProfile p;
    p.name = "hard-branches";
    p.syscallGap = 0;
    p.phases = {PhaseSpec{params, 1.0}};
    TraceGenerator gen(p, 3);
    auto trace = gen.generate(20000);

    CoreConfig shallow;
    shallow.frontEndDepth = 4;
    CoreConfig deep = shallow;
    deep.frontEndDepth = 12;
    EXPECT_GT(runSingle(shallow, trace).ipt,
              runSingle(deep, trace).ipt * 1.02);
}

TEST(TimingMonotonicity, BiggerL1CapturesBiggerFootprints)
{
    auto params = PhaseParams::canonical(PhaseKind::PointerChase);
    params.footprintBytes = 48 * 1024;
    params.chaseHotFrac = 0.0; // uniform over the footprint
    BenchmarkProfile p;
    p.name = "chase48k";
    p.syscallGap = 0;
    p.phases = {PhaseSpec{params, 1.0}};
    TraceGenerator gen(p, 9);
    auto trace = gen.generate(30000);

    CoreConfig small;
    small.l1d = CacheConfig{64, 2, 64, Cycles{2}, false}; // 8KB
    CoreConfig big = small;
    big.l1d = CacheConfig{1024, 2, 64, Cycles{2}, false}; // 128KB
    EXPECT_GT(runSingle(big, trace).ipt,
              runSingle(small, trace).ipt * 1.1);
}

/** Contesting with region logging composes: the region totals of
 *  the winner bound the contested finish time. */
TEST(ContestProperty, WinnerRegionsBoundFinishTime)
{
    auto trace = makeBenchmarkTrace("gcc", 21, 15000);
    ContestSystem sys({coreConfigByName("twolf"),
                       coreConfigByName("gzip")},
                      trace);
    auto r = sys.run();
    double single_best =
        std::max(runSingle(coreConfigByName("twolf"), trace).ipt,
                 runSingle(coreConfigByName("gzip"), trace).ipt);
    // Contesting can't lose to the best single core beyond the
    // synchronization noise on a short trace.
    EXPECT_GE(r.ipt, single_best * 0.95);
}

/** Injection conservation: paired results + broadcasts are
 *  consistent with the retired stream. */
class InjectionConservation
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(InjectionConservation, PairedNeverExceedsBroadcast)
{
    auto trace = makeBenchmarkTrace(GetParam(), 31, 12000);
    ContestSystem sys({coreConfigByName("parser"),
                       coreConfigByName("bzip")},
                      trace);
    auto r = sys.run();
    for (std::size_t c = 0; c < 2; ++c) {
        // A core can only pair what the other core broadcast.
        EXPECT_LE(r.unitStats[c].paired,
                  r.unitStats[1 - c].broadcasts);
        // Every injected completion traces back to a paired result
        // (fetch pairing or an early-resolved branch's pop).
        EXPECT_LE(r.coreStats[c].injected,
                  r.unitStats[c].paired
                      + r.coreStats[c].earlyResolves);
    }
}

INSTANTIATE_TEST_SUITE_P(SomeBenchmarks, InjectionConservation,
                         ::testing::Values("gcc", "twolf", "gzip",
                                           "mcf"));

} // namespace
} // namespace contest
