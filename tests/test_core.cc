/**
 * @file
 * Unit tests for the out-of-order core model, driven by handcrafted
 * traces with known timing properties.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/ooo_core.hh"
#include "core/palette.hh"
#include "trace/generator.hh"

namespace contest
{
namespace
{

/** A deterministic, easily-analyzed core configuration. */
CoreConfig
testConfig()
{
    CoreConfig c;
    c.name = "test";
    c.memAccessCycles = Cycles{100};
    c.frontEndDepth = 4;
    c.width = 4;
    c.robSize = 64;
    c.iqSize = 32;
    c.wakeupLatency = Cycles{1};
    c.schedDepth = Cycles{2};
    c.clockPeriodPs = TimePs{250};
    c.l1d = CacheConfig{64, 2, 64, Cycles{2}, false};
    c.l2 = CacheConfig{256, 4, 64, Cycles{8}, false};
    c.lsqSize = 32;
    c.l1dPorts = 2;
    c.mshrs = 8;
    return c;
}

/** ALU instruction writing @p dst, reading @p src (may be invalid). */
TraceInst
alu(RegId dst, RegId src = invalidReg)
{
    TraceInst i;
    i.op = OpClass::IntAlu;
    i.dst = dst;
    i.src1 = src;
    i.pc = 0x1000;
    return i;
}

TracePtr
makeTrace(const std::vector<TraceInst> &insts)
{
    auto t = std::make_shared<Trace>("hand");
    for (const auto &inst : insts)
        t->push(inst, 0);
    return t;
}

Cycles
runToCompletion(OooCore &core)
{
    TimePs now{};
    while (!core.done()) {
        core.tick(now);
        now += core.periodPs();
    }
    return core.cycle();
}

TEST(Core, IndependentAluSaturatesWidth)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 4000; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + (i % 60))));
    OooCore core(testConfig(), makeTrace(insts));
    Cycles cycles = runToCompletion(core);
    // 4000 independent ALU ops on a 4-wide core: ~1000 cycles plus
    // pipeline fill.
    EXPECT_GE(cycles, 1000u);
    EXPECT_LE(cycles, 1100u);
    EXPECT_EQ(core.retired(), 4000u);
}

TEST(Core, SerialChainPaysWakeupLatency)
{
    // Each instruction depends on the previous one: with execLat 1
    // and wakeupLatency 1, one instruction completes every 2 cycles.
    std::vector<TraceInst> insts;
    insts.push_back(alu(1));
    for (int i = 1; i < 1000; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + (i % 60)),
                            static_cast<RegId>(1 + ((i - 1) % 60))));
    OooCore core(testConfig(), makeTrace(insts));
    Cycles cycles = runToCompletion(core);
    EXPECT_GE(cycles, 1990u);
    EXPECT_LE(cycles, 2100u);
}

TEST(Core, WakeupZeroRunsChainsBackToBack)
{
    auto cfg = testConfig();
    cfg.wakeupLatency = Cycles{};
    std::vector<TraceInst> insts;
    insts.push_back(alu(1));
    for (int i = 1; i < 1000; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + (i % 60)),
                            static_cast<RegId>(1 + ((i - 1) % 60))));
    OooCore core(cfg, makeTrace(insts));
    Cycles cycles = runToCompletion(core);
    EXPECT_GE(cycles, 995u);
    EXPECT_LE(cycles, 1100u);
}

TEST(Core, RetiresInProgramOrder)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 500; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + (i % 60))));
    OooCore core(testConfig(), makeTrace(insts));
    InstSeq expected{};
    core.setRetireCallback([&](InstSeq seq, TimePs) {
        EXPECT_EQ(seq, expected);
        ++expected;
    });
    runToCompletion(core);
    EXPECT_EQ(expected, 500u);
}

TEST(Core, ColdLoadMissReachesMemory)
{
    std::vector<TraceInst> insts;
    TraceInst ld;
    ld.op = OpClass::Load;
    ld.dst = 1;
    ld.addr = 0x10000;
    ld.pc = 0x1000;
    insts.push_back(ld);
    // A dependent consumer must wait for the full miss.
    insts.push_back(alu(2, 1));
    OooCore core(testConfig(), makeTrace(insts));
    Cycles cycles = runToCompletion(core);
    // Memory latency 100 + L1 2 + L2 8 dominates.
    EXPECT_GE(cycles, 110u);
    EXPECT_EQ(core.memory().l1().misses(), 1u);
    EXPECT_EQ(core.memory().l2().misses(), 1u);
}

TEST(Core, WarmLoadHitsAreFast)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 200; ++i) {
        TraceInst ld;
        ld.op = OpClass::Load;
        ld.dst = static_cast<RegId>(1 + (i % 60));
        ld.addr = 0x100; // same block every time
        ld.pc = 0x1000;
        insts.push_back(ld);
    }
    OooCore core(testConfig(), makeTrace(insts));
    Cycles cycles = runToCompletion(core);
    // One cold miss, then port-limited (2/cycle): ~100 cycles + miss.
    EXPECT_LE(cycles, 300u);
    EXPECT_EQ(core.memory().l1().misses(), 1u);
}

TEST(Core, MispredictedBranchStallsFetch)
{
    // Baseline: straight ALU code.
    std::vector<TraceInst> plain;
    for (int i = 0; i < 400; ++i)
        plain.push_back(alu(static_cast<RegId>(1 + (i % 60))));
    OooCore base(testConfig(), makeTrace(plain));
    Cycles base_cycles = runToCompletion(base);

    // Same code plus taken branches the predictor has never seen:
    // the first instance of each static branch mispredicts.
    std::vector<TraceInst> branchy;
    for (int i = 0; i < 400; ++i) {
        branchy.push_back(alu(static_cast<RegId>(1 + (i % 60))));
        if (i % 40 == 20) {
            TraceInst br;
            br.op = OpClass::BranchCond;
            br.pc = 0x2000 + static_cast<Addr>(i) * 64;
            br.taken = true;
            br.target = 0x9000;
            br.src1 = branchy.back().dst;
            branchy.push_back(br);
        }
    }
    OooCore core(testConfig(), makeTrace(branchy));
    Cycles cycles = runToCompletion(core);
    EXPECT_GT(core.stats().mispredicts, 0u);
    EXPECT_GT(core.stats().fetchStallBranch, 0u);
    // Each mispredict costs at least resolution + front-end refill.
    EXPECT_GT(cycles,
              base_cycles + core.stats().mispredicts * 5);
}

TEST(Core, SyscallSerializesAndChargesHandler)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 50; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + i)));
    TraceInst sys;
    sys.op = OpClass::Syscall;
    sys.pc = 0x3000;
    insts.push_back(sys);
    for (int i = 0; i < 50; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + i)));

    auto cfg = testConfig();
    cfg.syscallHandlerCycles = Cycles{64};
    OooCore core(cfg, makeTrace(insts));
    Cycles cycles = runToCompletion(core);
    EXPECT_EQ(core.stats().syscalls, 1u);
    EXPECT_GE(core.stats().syscallStalls, 1u);
    // Two ~15-cycle halves plus a 64-cycle handler.
    EXPECT_GE(cycles, 80u);
}

TEST(Core, RobSizeDeterminesMemoryLevelParallelism)
{
    // Eight independent cold misses spaced 60 instructions apart: a
    // 512-entry window overlaps them all; a 16-entry window cannot
    // reach the next miss until the previous one commits, so the
    // misses serialize.
    std::vector<TraceInst> insts;
    for (int m = 0; m < 8; ++m) {
        TraceInst ld;
        ld.op = OpClass::Load;
        ld.dst = 63;
        ld.addr = 0x40000 + static_cast<Addr>(m) * 0x1000;
        ld.pc = 0x1000;
        insts.push_back(ld);
        for (int i = 0; i < 60; ++i)
            insts.push_back(alu(static_cast<RegId>(1 + (i % 50))));
    }

    auto small = testConfig();
    small.robSize = 16;
    small.iqSize = 16;
    OooCore small_core(small, makeTrace(insts));
    Cycles small_cycles = runToCompletion(small_core);
    EXPECT_GT(small_core.stats().robFullStalls, 0u);

    auto big = testConfig();
    big.robSize = 512;
    big.iqSize = 32;
    OooCore big_core(big, makeTrace(insts));
    Cycles big_cycles = runToCompletion(big_core);
    // Serialized misses cost ~8x110 cycles; overlapped ones ~110.
    EXPECT_LT(big_cycles * 2, small_cycles);
}

TEST(Core, LsqBoundsOutstandingMemoryOps)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 64; ++i) {
        TraceInst ld;
        ld.op = OpClass::Load;
        ld.dst = static_cast<RegId>(1 + (i % 60));
        ld.addr = 0x50000 + static_cast<Addr>(i) * 64;
        ld.pc = 0x1000;
        insts.push_back(ld);
    }
    auto cfg = testConfig();
    cfg.lsqSize = 4;
    OooCore core(cfg, makeTrace(insts));
    runToCompletion(core);
    EXPECT_GT(core.stats().lsqFullStalls, 0u);
    EXPECT_EQ(core.retired(), 64u);
}

TEST(Core, StoresCommitAndWriteCaches)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 20; ++i) {
        TraceInst st;
        st.op = OpClass::Store;
        st.addr = 0x6000 + static_cast<Addr>(i) * 8;
        st.pc = 0x1000;
        insts.push_back(st);
    }
    OooCore core(testConfig(), makeTrace(insts));
    runToCompletion(core);
    EXPECT_EQ(core.retired(), 20u);
    EXPECT_GT(core.memory().l1().accesses(), 0u);
}

TEST(Core, TickAfterDoneIsANoOp)
{
    std::vector<TraceInst> insts{alu(1)};
    OooCore core(testConfig(), makeTrace(insts));
    runToCompletion(core);
    Cycles cycles = core.cycle();
    core.tick(TimePs{1'000'000});
    EXPECT_EQ(core.cycle(), cycles);
}

TEST(Core, PaletteConfigsAllRunAShortTrace)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 2000; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + (i % 60)),
                            i % 3 == 0 ? static_cast<RegId>(
                                1 + ((i + 57) % 60))
                                       : invalidReg));
    auto trace = makeTrace(insts);
    for (const auto &cfg : appendixAPalette()) {
        OooCore core(cfg, trace);
        runToCompletion(core);
        EXPECT_EQ(core.retired(), trace->size()) << cfg.name;
        EXPECT_GT(core.stats().ipc(), 0.1) << cfg.name;
    }
}


TEST(Core, WakeupMasksSpanMultipleWords)
{
    // More than 64 producers in flight at once: the ready/issued/
    // completed ring masks (one bit per ring position, ringCap =
    // nextPow2(robSize + slack) = 256 here) must operate across
    // word boundaries. 120 independent cold misses all fit in the
    // ROB/LSQ/MSHRs and the L1 ports drain them into the memory
    // system well before the first reply, so all 120 loads are
    // outstanding simultaneously.
    auto cfg = testConfig();
    cfg.memAccessCycles = Cycles{400};
    // One-cycle fill gap so the bus does not stagger the replies.
    cfg.memBandwidthBytesPerNs = 256.0;
    cfg.width = 8;
    cfg.robSize = 200;
    cfg.iqSize = 64;
    cfg.lsqSize = 160;
    cfg.mshrs = 128;
    std::vector<TraceInst> insts;
    for (int i = 0; i < 120; ++i) {
        TraceInst ld;
        ld.op = OpClass::Load;
        ld.dst = static_cast<RegId>(1 + (i % 60));
        ld.addr = 0x80000 + static_cast<Addr>(i) * 0x1000;
        ld.pc = 0x1000;
        insts.push_back(ld);
    }
    // Waiters pending on the multi-word producer set: one consumer
    // per architectural register, woken by the last load writing it.
    for (int i = 0; i < 60; ++i)
        insts.push_back(alu(63, static_cast<RegId>(1 + i)));
    OooCore core(cfg, makeTrace(insts));
    InstSeq expected{};
    core.setRetireCallback([&](InstSeq seq, TimePs) {
        EXPECT_EQ(seq, expected);
        ++expected;
    });
    Cycles cycles = runToCompletion(core);
    EXPECT_EQ(core.retired(), insts.size());
    // One overlapped memory round trip (~410 cycles) plus issue and
    // drain. Two serialized waves (only <=64 overlapped misses)
    // would exceed 850 cycles.
    EXPECT_GE(cycles, 410u);
    EXPECT_LE(cycles, 700u);
    EXPECT_EQ(core.memory().l1().misses(), 120u);
}

TEST(Core, RingIndicesWrapWithEntriesInFlight)
{
    // A small ROB (ringCap = nextPow2(24 + 2*2 + 2) = 32) over a
    // long trace wraps the position ring dozens of times, and the
    // periodic independent cold misses keep the ROB full so the
    // in-flight window straddles the wrap boundary on most laps.
    // Retirement must stay in program order throughout.
    auto cfg = testConfig();
    cfg.width = 2;
    cfg.robSize = 24;
    cfg.iqSize = 12;
    cfg.lsqSize = 8;
    std::vector<TraceInst> insts;
    insts.push_back(alu(1));
    for (int i = 1; i < 2000; ++i) {
        if (i % 30 == 15) {
            TraceInst ld;
            ld.op = OpClass::Load;
            ld.dst = 62;
            ld.addr = 0x90000 + static_cast<Addr>(i) * 0x1000;
            ld.pc = 0x1000;
            insts.push_back(ld);
        }
        insts.push_back(alu(static_cast<RegId>(1 + (i % 60)),
                            static_cast<RegId>(1 + ((i - 1) % 60))));
    }
    OooCore core(cfg, makeTrace(insts));
    InstSeq expected{};
    core.setRetireCallback([&](InstSeq seq, TimePs) {
        EXPECT_EQ(seq, expected);
        ++expected;
    });
    Cycles cycles = runToCompletion(core);
    EXPECT_EQ(core.retired(), insts.size());
    EXPECT_EQ(expected, insts.size());
    // The serial ALU chain alone costs 2 cycles per instruction.
    EXPECT_GE(cycles, 3900u);
    // The misses behind the chain fill the ROB across wrap points.
    EXPECT_GT(core.stats().robFullStalls, 0u);
}

TEST(Core, ICacheOffByDefaultAndPerfect)
{
    std::vector<TraceInst> insts;
    for (int i = 0; i < 200; ++i)
        insts.push_back(alu(static_cast<RegId>(1 + (i % 60))));
    OooCore core(testConfig(), makeTrace(insts));
    EXPECT_EQ(core.instructionCache(), nullptr);
    runToCompletion(core);
    EXPECT_EQ(core.stats().icacheMisses, 0u);
}

TEST(Core, ICacheMissesStallFetch)
{
    // Code spread over many blocks: a tiny I-cache thrashes.
    std::vector<TraceInst> insts;
    for (int i = 0; i < 2000; ++i) {
        TraceInst a = alu(static_cast<RegId>(1 + (i % 60)));
        a.pc = 0x400000 + static_cast<Addr>(i % 512) * 256;
        insts.push_back(a);
    }
    auto trace = makeTrace(insts);

    auto with_ic = testConfig();
    with_ic.modelICache = true;
    with_ic.l1i = CacheConfig{8, 1, 64, Cycles{1}, false}; // 512B
    OooCore small_ic(with_ic, trace);
    Cycles small_cycles = runToCompletion(small_ic);
    EXPECT_GT(small_ic.stats().icacheMisses, 100u);

    OooCore perfect(testConfig(), trace);
    Cycles perfect_cycles = runToCompletion(perfect);
    EXPECT_GT(small_cycles, perfect_cycles * 2);
}

TEST(Core, LargeICacheApproachesPerfect)
{
    // Long enough that the code footprint's cold misses amortize.
    auto trace = makeBenchmarkTrace("gcc", 3, 100000);
    auto with_ic = testConfig();
    with_ic.modelICache = true;
    // Big enough for the whole synthetic code footprint.
    // High associativity absorbs the staggered phase code regions.
    with_ic.l1i = CacheConfig{512, 8, 64, Cycles{1}, false}; // 256KB
    OooCore warm(with_ic, trace);
    Cycles warm_cycles = runToCompletion(warm);
    // The resident code working set keeps the miss rate low.
    EXPECT_LT(warm.instructionCache()->missRate(), 0.05);
    OooCore perfect(testConfig(), trace);
    Cycles perfect_cycles = runToCompletion(perfect);
    EXPECT_LT(warm_cycles, perfect_cycles * 2);
}

} // namespace
} // namespace contest
