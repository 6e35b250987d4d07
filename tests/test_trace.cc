/**
 * @file
 * Unit tests for the synthetic workload substrate: determinism,
 * composition, dependence structure, memory footprints, and the
 * SPEC2000-like profile registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "trace/generator.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"

namespace contest
{
namespace
{

TEST(Profiles, RegistryHasElevenBenchmarksInPaperOrder)
{
    auto names = profileNames();
    std::vector<std::string> expected{
        "bzip", "crafty", "gap", "gcc", "gzip", "mcf",
        "parser", "perl", "twolf", "vortex", "vpr"};
    EXPECT_EQ(names, expected);
}

TEST(Profiles, LookupByNameAndUnknownIsFatal)
{
    EXPECT_EQ(profileByName("gcc").name, "gcc");
    EXPECT_EXIT(profileByName("eon"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(Profiles, WeightsArePositiveAndPhasesNonEmpty)
{
    for (const auto &p : spec2000IntProfiles()) {
        EXPECT_FALSE(p.phases.empty()) << p.name;
        for (const auto &spec : p.phases) {
            EXPECT_GT(spec.weight, 0.0) << p.name;
            EXPECT_GT(spec.params.meanLen, 0u) << p.name;
            EXPECT_GT(spec.params.footprintBytes, 0u) << p.name;
        }
    }
}

TEST(Generator, DeterministicForEqualSeeds)
{
    auto a = makeBenchmarkTrace("gcc", 99, 20000);
    auto b = makeBenchmarkTrace("gcc", 99, 20000);
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
        ASSERT_EQ((*a)[i].pc, (*b)[i].pc);
        ASSERT_EQ((*a)[i].op, (*b)[i].op);
        ASSERT_EQ((*a)[i].addr, (*b)[i].addr);
        ASSERT_EQ((*a)[i].taken, (*b)[i].taken);
        ASSERT_EQ((*a)[i].src1, (*b)[i].src1);
        ASSERT_EQ((*a)[i].src2, (*b)[i].src2);
        ASSERT_EQ((*a)[i].dst, (*b)[i].dst);
    }
}

TEST(Generator, DifferentSeedsProduceDifferentTraces)
{
    auto a = makeBenchmarkTrace("gcc", 1, 5000);
    auto b = makeBenchmarkTrace("gcc", 2, 5000);
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a->size(); ++i)
        if ((*a)[i].op != (*b)[i].op || (*a)[i].addr != (*b)[i].addr)
            ++diffs;
    EXPECT_GT(diffs, a->size() / 10);
}

TEST(Generator, ExactRequestedLength)
{
    for (std::uint64_t n : {100ull, 1234ull, 50000ull})
        EXPECT_EQ(makeBenchmarkTrace("vpr", 5, n)->size(), n);
}

TEST(Generator, MixRoughlyMatchesPhaseFractions)
{
    // A single-phase profile should reproduce its op fractions.
    BenchmarkProfile p;
    p.name = "mixcheck";
    p.syscallGap = 0;
    auto spec = PhaseSpec{PhaseParams::canonical(PhaseKind::Branchy),
                          1.0};
    p.phases = {spec};
    TraceGenerator gen(p, 3);
    auto t = gen.generate(60000);
    auto mix = t->mix();
    double n = static_cast<double>(t->size());
    EXPECT_NEAR(mix.loads / n, spec.params.fracLoad, 0.02);
    EXPECT_NEAR(mix.stores / n, spec.params.fracStore, 0.02);
    EXPECT_NEAR(mix.condBranches / n, spec.params.fracCondBranch,
                0.02);
}

TEST(Generator, PhasesChangeAtFineGranularity)
{
    auto t = makeBenchmarkTrace("twolf", 7, 100000);
    // twolf's mean phase lengths are ~100-120 instructions, so a
    // 100k trace must contain hundreds of phase changes.
    EXPECT_GT(t->phaseChanges(), 300u);
    // Mean phase length below a thousand instructions — the paper's
    // Section 2 premise.
    double mean_len = static_cast<double>(t->size())
        / static_cast<double>(t->phaseChanges() + 1);
    EXPECT_LT(mean_len, 1000.0);
}

TEST(Generator, MemoryAccessesStayInsideFootprints)
{
    const auto &prof = profileByName("parser");
    Addr max_fp = 0;
    for (const auto &spec : prof.phases)
        max_fp = std::max(max_fp, spec.params.footprintBytes);

    auto t = makeBenchmarkTrace("parser", 11, 50000);
    for (std::size_t i = 0; i < t->size(); ++i) {
        const auto &inst = (*t)[i];
        if (!inst.isMem())
            continue;
        // parser shares one data region, so every access must land
        // within [base, base + largest footprint).
        ASSERT_GE(inst.addr, 0x1000'0000ULL);
        ASSERT_LT(inst.addr, 0x1000'0000ULL + max_fp);
    }
}

TEST(Generator, SourcesReferToRecentProducers)
{
    auto t = makeBenchmarkTrace("gcc", 13, 20000);
    // Track last-writer position per register; any src must have
    // been produced within the generator's ring (64 producers).
    std::map<RegId, std::size_t> last_writer;
    std::size_t producers_seen = 0;
    for (std::size_t i = 0; i < t->size(); ++i) {
        const auto &inst = (*t)[i];
        for (RegId src : {inst.src1, inst.src2}) {
            if (src == invalidReg)
                continue;
            auto it = last_writer.find(src);
            ASSERT_NE(it, last_writer.end())
                << "src register never written, inst " << i;
        }
        if (inst.producesValue()) {
            last_writer[inst.dst] = i;
            ++producers_seen;
        }
    }
    EXPECT_GT(producers_seen, t->size() / 3);
}

TEST(Generator, BranchesHaveStablePcs)
{
    auto t = makeBenchmarkTrace("perl", 17, 40000);
    // Each conditional-branch pc must always carry the same target
    // (static branch sites).
    std::map<Addr, Addr> target_of;
    for (std::size_t i = 0; i < t->size(); ++i) {
        const auto &inst = (*t)[i];
        if (inst.op != OpClass::BranchCond)
            continue;
        auto [it, inserted] = target_of.emplace(inst.pc, inst.target);
        if (!inserted) {
            ASSERT_EQ(it->second, inst.target)
                << "branch site changed target";
        }
    }
    EXPECT_GT(target_of.size(), 10u);
}

TEST(Generator, SyscallsAppearAtConfiguredRate)
{
    auto t = makeBenchmarkTrace("gcc", 19, 400000);
    auto mix = t->mix();
    // gcc's profile uses the default 200k gap: expect ~2 +/- slack.
    EXPECT_GE(mix.syscalls, 1u);
    EXPECT_LE(mix.syscalls, 5u);
}

TEST(Generator, SyscallGapZeroMeansNone)
{
    BenchmarkProfile p;
    p.name = "nosyscall";
    p.syscallGap = 0;
    p.phases = {
        PhaseSpec{PhaseParams::canonical(PhaseKind::HotLoop), 1.0}};
    TraceGenerator gen(p, 23);
    EXPECT_EQ(gen.generate(50000)->mix().syscalls, 0u);
}

TEST(Generator, ChaseLoadsFormDependentChains)
{
    BenchmarkProfile p;
    p.name = "chasecheck";
    p.syscallGap = 0;
    auto params = PhaseParams::canonical(PhaseKind::PointerChase);
    params.chaseChains = 2;
    p.phases = {PhaseSpec{params, 1.0}};
    TraceGenerator gen(p, 29);
    auto t = gen.generate(20000);

    // After warmup, every chase load's src1 must be the dst of an
    // earlier chase load (its chain predecessor).
    std::set<RegId> load_dsts;
    std::size_t chained = 0;
    std::size_t loads = 0;
    for (std::size_t i = 0; i < t->size(); ++i) {
        const auto &inst = (*t)[i];
        if (inst.op != OpClass::Load)
            continue;
        ++loads;
        if (loads > 10 && load_dsts.count(inst.src1))
            ++chained;
        load_dsts.insert(inst.dst);
    }
    EXPECT_GT(chained, loads * 8 / 10);
}

TEST(Generator, StreamAddressesAdvanceByStride)
{
    BenchmarkProfile p;
    p.name = "streamcheck";
    p.syscallGap = 0;
    auto params = PhaseParams::canonical(PhaseKind::Streaming);
    params.strideBytes = 32;
    p.phases = {PhaseSpec{params, 1.0}};
    TraceGenerator gen(p, 31);
    auto t = gen.generate(10000);

    Addr prev = 0;
    std::size_t strided = 0;
    std::size_t mem_ops = 0;
    for (std::size_t i = 0; i < t->size(); ++i) {
        const auto &inst = (*t)[i];
        if (!inst.isMem())
            continue;
        ++mem_ops;
        if (prev != 0 && inst.addr == prev + 32)
            ++strided;
        prev = inst.addr;
    }
    EXPECT_GT(strided, mem_ops * 9 / 10);
}

TEST(TraceContainer, MixCountsEveryClass)
{
    Trace t("tiny");
    TraceInst alu;
    alu.op = OpClass::IntAlu;
    TraceInst ld;
    ld.op = OpClass::Load;
    TraceInst br;
    br.op = OpClass::BranchCond;
    t.push(alu, 0);
    t.push(ld, 0);
    t.push(br, 1);
    auto mix = t.mix();
    EXPECT_EQ(mix.alu, 1u);
    EXPECT_EQ(mix.loads, 1u);
    EXPECT_EQ(mix.condBranches, 1u);
    EXPECT_EQ(mix.total(), 3u);
    EXPECT_EQ(t.phaseChanges(), 1u);
}

TEST(TraceInst, HelperPredicates)
{
    TraceInst inst;
    inst.op = OpClass::Load;
    inst.dst = 3;
    EXPECT_TRUE(inst.isMem());
    EXPECT_FALSE(inst.isBranch());
    EXPECT_TRUE(inst.producesValue());
    inst.op = OpClass::BranchCond;
    inst.dst = invalidReg;
    EXPECT_TRUE(inst.isBranch());
    EXPECT_FALSE(inst.producesValue());
    EXPECT_EQ(inst.execLatency(), 1u);
    inst.op = OpClass::IntMul;
    EXPECT_EQ(inst.execLatency(), 3u);
    inst.op = OpClass::IntDiv;
    EXPECT_EQ(inst.execLatency(), 12u);
}

} // namespace
} // namespace contest

// Appended: trace serialization round-trip tests.
#include "trace/trace_io.hh"

#include <cstdio>

namespace contest
{
namespace
{

TEST(TraceIo, RoundTripPreservesEverything)
{
    auto original = makeBenchmarkTrace("gcc", 55, 5000);
    std::string path = ::testing::TempDir() + "roundtrip.ctrc";
    writeTrace(path, *original);
    auto loaded = readTrace(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded->size(), original->size());
    EXPECT_EQ(loaded->name(), original->name());
    for (std::size_t i = 0; i < original->size(); ++i) {
        ASSERT_EQ((*loaded)[i].pc, (*original)[i].pc);
        ASSERT_EQ((*loaded)[i].addr, (*original)[i].addr);
        ASSERT_EQ((*loaded)[i].target, (*original)[i].target);
        ASSERT_EQ((*loaded)[i].src1, (*original)[i].src1);
        ASSERT_EQ((*loaded)[i].src2, (*original)[i].src2);
        ASSERT_EQ((*loaded)[i].dst, (*original)[i].dst);
        ASSERT_EQ((*loaded)[i].op, (*original)[i].op);
        ASSERT_EQ((*loaded)[i].taken, (*original)[i].taken);
        ASSERT_EQ(loaded->phaseOf(i), original->phaseOf(i));
    }
}

TEST(TraceIo, RejectsGarbageFiles)
{
    std::string path = ::testing::TempDir() + "garbage.ctrc";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "not a contest trace");
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_EXIT(readTrace("/nonexistent/trace.ctrc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    Trace empty("void");
    std::string path = ::testing::TempDir() + "empty.ctrc";
    writeTrace(path, empty);
    auto loaded = readTrace(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded->size(), 0u);
    EXPECT_EQ(loaded->name(), "void");
}

} // namespace
} // namespace contest
