/**
 * @file
 * Unit tests for the common substrate: RNG, statistics, tables,
 * environment knobs, the command-line parser, and the IPT
 * conversion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/cycle_ring.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace contest
{
namespace
{

/** @name Unit-mixing compile-fail probes
 *
 * Detection idiom: each probe is valid exactly when the cross-unit
 * expression compiles, so the static_asserts below pin the compile
 * errors the Strong<> wrapper exists to produce. If someone loosens
 * the operators, this test file stops building.
 */
/** @{ */
template <typename A, typename B, typename = void>
struct CanAdd : std::false_type
{};
template <typename A, typename B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>()
                                   + std::declval<B>())>>
    : std::true_type
{};

template <typename A, typename B, typename = void>
struct CanCompare : std::false_type
{};
template <typename A, typename B>
struct CanCompare<A, B,
                  std::void_t<decltype(std::declval<A>()
                                       == std::declval<B>())>>
    : std::true_type
{};

template <typename A, typename B, typename = void>
struct CanAssignFrom : std::false_type
{};
template <typename A, typename B>
struct CanAssignFrom<A, B,
                     std::void_t<decltype(std::declval<A &>() =
                                              std::declval<B>())>>
    : std::true_type
{};

// Same-unit and scalar forms stay valid...
static_assert(CanAdd<TimePs, TimePs>::value);
static_assert(CanAdd<TimePs, int>::value);
static_assert(CanCompare<TimePs, TimePs>::value);
static_assert(CanCompare<TimePs, int>::value);
// ...but the unit-mixing forms must not compile.
static_assert(!CanAdd<TimePs, Cycles>::value);
static_assert(!CanAdd<Cycles, TimePs>::value);
static_assert(!CanAdd<InstSeq, StoreSeq>::value);
static_assert(!CanCompare<TimePs, Cycles>::value);
static_assert(!CanCompare<InstSeq, StoreSeq>::value);
// Raw integers do not implicitly become quantities either.
static_assert(!CanAssignFrom<TimePs, std::uint64_t>::value);
// contest-lint: allow(bare-u64-quantity)
static_assert(!std::is_convertible_v<std::uint64_t, TimePs>);
static_assert(!std::is_convertible_v<TimePs, std::uint64_t>);
/** @} */

TEST(Strong, ArithmeticAndComparison)
{
    TimePs a{100};
    TimePs b{40};
    EXPECT_EQ((a + b).count(), 140u);
    EXPECT_EQ((a - b).count(), 60u);
    EXPECT_EQ(a / b, 2u);
    EXPECT_EQ((a * 3).count(), 300u);
    EXPECT_EQ((3 * a).count(), 300u);
    EXPECT_EQ((a / 4).count(), 25u);
    EXPECT_EQ((a + 1).count(), 101u);
    EXPECT_EQ((a - 1).count(), 99u);
    EXPECT_TRUE(a > b);
    EXPECT_TRUE(b < 100);
    EXPECT_TRUE(a == 100u);
    a += b;
    EXPECT_EQ(a.count(), 140u);
    a -= 40;
    EXPECT_EQ(a.count(), 100u);
    EXPECT_EQ((a++).count(), 100u);
    EXPECT_EQ((++a).count(), 102u);
    EXPECT_EQ(TimePs::max().count(),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Strong, CyclesToPsIsTheOnlyCrossing)
{
    // 5 cycles at a 250 ps clock period.
    EXPECT_EQ(cyclesToPs(Cycles{5}, TimePs{250}).count(), 1250u);
    EXPECT_EQ(cyclesToPs(Cycles{}, TimePs{250}), TimePs{});
}

TEST(Strong, HashesLikeRawRepresentation)
{
    std::unordered_set<InstSeq> seen;
    seen.insert(InstSeq{3});
    seen.insert(InstSeq{3});
    seen.insert(InstSeq{4});
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(std::hash<InstSeq>{}(InstSeq{42}),
              std::hash<std::uint64_t>{}(42));
}

TEST(StrongDeathTest, DebugSubtractionPanicsOnWrap)
{
#if CONTEST_CHECKED_UNITS
    // The checked operator- turns the silent wrap behind the original
    // SyncStoreQueue::canAccept bug into an immediate panic.
    EXPECT_DEATH((void)(TimePs{1} - TimePs{2}),
                 "strong-type underflow");
    StoreSeq merged{10};
    StoreSeq performed{4};
    EXPECT_DEATH((void)(performed - merged),
                 "strong-type underflow");
#else
    GTEST_SKIP() << "checked units compile out under NDEBUG "
                    "(covered by the Debug sanitize CI jobs)";
#endif
}

TEST(Types, InstPerNsConvertsPicoseconds)
{
    // 1000 instructions in 500 ns -> 2 inst/ns.
    EXPECT_DOUBLE_EQ(instPerNs(InstSeq{1000}, TimePs{500 * psPerNs}), 2.0);
    EXPECT_DOUBLE_EQ(instPerNs(InstSeq{}, TimePs{1000}), 0.0);
    EXPECT_DOUBLE_EQ(instPerNs(InstSeq{1000}, TimePs{}), 0.0);
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        if (rng.chance(0.3))
            ++hits;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
    EXPECT_FALSE(Rng(1).chance(0.0));
    EXPECT_TRUE(Rng(1).chance(1.0));
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng rng(17);
    std::vector<double> weights{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 20000; ++i)
        ++counts[rng.weighted(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Means, ArithmeticAndHarmonic)
{
    std::vector<double> xs{1.0, 2.0, 4.0};
    EXPECT_NEAR(arithmeticMean(xs), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(harmonicMean(xs), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
}

TEST(ArgmaxFirst, PicksTheFirstOfTiedMaxima)
{
    // Tie-breaking must be first-wins so best-row selection is
    // deterministic regardless of how a sweep is ordered or split
    // across workers.
    std::vector<double> tied{1.0, 5.0, 3.0, 5.0, 5.0};
    EXPECT_EQ(argmaxFirst(tied), 1u);
    std::vector<double> single{2.0};
    EXPECT_EQ(argmaxFirst(single), 0u);
    std::vector<double> rising{-3.0, -2.0, -1.0};
    EXPECT_EQ(argmaxFirst(rising), 2u);
}

TEST(ArgmaxFirst, RejectsEmptyInput)
{
    EXPECT_EXIT(argmaxFirst({}), ::testing::ExitedWithCode(1),
                "argmaxFirst");
}

/**
 * Drive a CycleRing and a std::multimap reference through the same
 * seeded mix of operations: pushes inside the ring, past-due pushes
 * (clamped to now + 1), pushes past the horizon (the overflow),
 * drains after gaps of 1-4 cycles (the bucket walk) and of 5 up to
 * the span (the bitmap scan; no drain goes further while events are
 * pending). A payload is its due cycle times four
 * plus a tag below four, so equal payloads can queue together and
 * each drain compares with the reference cycle by cycle as
 * multisets.
 */
void
checkCycleRingAgainstMultimap(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // A power of two, so it is exactly the ring's span.
    constexpr std::uint64_t span = 64;
    constexpr std::uint64_t tags = 4;
    CycleRing<std::uint64_t> ring;
    ring.init(span, 16);
    std::multimap<Cycles, std::uint64_t> ref;
    Rng rng(seed);
    Cycles now{};

    auto push = [&](Cycles at) {
        const Cycles due = std::max(at, now + 1);
        const std::uint64_t v = due.count() * tags + rng.below(tags);
        ring.push(now, at, v);
        ref.emplace(due, v);
    };
    using PerCycle = std::map<Cycles, std::multiset<std::uint64_t>>;
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 30) {
            push(now + 1 + rng.below(span));
        } else if (kind < 40) {
            const std::uint64_t back =
                rng.below(std::min<std::uint64_t>(now.count(), 3) + 1);
            push(Cycles{now.count() - back});
        } else if (kind < 50) {
            push(now + span + 1 + rng.below(3 * span));
        } else {
            const std::uint64_t gap = rng.chance(0.5)
                ? 1 + rng.below(4)
                : 5 + rng.below(span - 4);
            const Cycles to = now + gap;
            PerCycle got;
            ring.drainUpTo(to, [&](std::uint64_t v) {
                got[Cycles{v / tags}].insert(v);
            });
            PerCycle want;
            for (auto it = ref.begin();
                 it != ref.end() && it->first <= to;
                 it = ref.erase(it))
                want[it->first].insert(it->second);
            ASSERT_EQ(got, want) << "drain to " << to.count();
            now = to;
        }
        ASSERT_EQ(ring.size(), ref.size()) << "op " << op;
        ASSERT_EQ(ring.empty(), ref.empty()) << "op " << op;
        if (!ref.empty()) {
            ASSERT_EQ(ring.nextAt().count(), ref.begin()->first.count())
                << "op " << op;
        }
    }
}

TEST(CycleRing, MatchesAMultimapReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        checkCycleRingAgainstMultimap(seed);
}

TEST(TextTable, RendersAlignedRows)
{
    TextTable t("Demo");
    t.header({"name", "ipt"});
    t.row({"gcc", TextTable::num(2.27)});
    t.row({"mcf", TextTable::num(0.93)});
    std::string out = t.render();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("gcc"), std::string::npos);
    EXPECT_NE(out.find("2.27"), std::string::npos);
    EXPECT_NE(out.find("0.93"), std::string::npos);
}

TEST(TextTable, FormattersRound)
{
    EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::pct(0.153, 1), "+15.3%");
    EXPECT_EQ(TextTable::pct(-0.05, 1), "-5.0%");
}

TEST(Env, ParseU64NamesWhatIsWrong)
{
    // The parser behind every integer option and its variable: a
    // rejected value leaves the output untouched and says why.
    const std::pair<const char *, const char *> bad[] = {
        {"", "not a number"},         {"+", "not a number"},
        {"-0", "negative"},           {"70000 ", "trailing garbage"},
        {"0x10", "trailing garbage"}, {"18446744073709551616", "out of range"}};
    for (const auto &[text, reason] : bad) {
        std::uint64_t v = 7;
        const char *why = nullptr;
        EXPECT_FALSE(parseU64(text, v, &why)) << "'" << text << "'";
        EXPECT_EQ(v, 7u) << "'" << text << "'";
        EXPECT_STREQ(why, reason) << "'" << text << "'";
    }
    std::uint64_t v = 7;
    EXPECT_TRUE(parseU64(" 65536", v));
    EXPECT_EQ(v, 65536u);
    // The extremes of the valid range parse exactly.
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
}

TEST(Env, ParseNonNegativeNamesWhatIsWrong)
{
    // The parser behind the tools' tolerances, rates and latencies.
    const std::pair<const char *, const char *> bad[] = {
        {"", "not a number"},         {"abc", "not a number"},
        {"-1", "negative"},           {"-0", "negative"},
        {"0.5x", "trailing garbage"}, {"inf", "not finite"},
        {"nan", "not finite"},        {"1e999", "not finite"}};
    for (const auto &[text, reason] : bad) {
        double v = 7.0;
        const char *why = nullptr;
        EXPECT_FALSE(parseNonNegative(text, v, &why)) << "'" << text << "'";
        EXPECT_EQ(v, 7.0) << "'" << text << "'";
        EXPECT_STREQ(why, reason) << "'" << text << "'";
    }
    double v = 7.0;
    EXPECT_TRUE(parseNonNegative(" 1e-6", v));
    EXPECT_EQ(v, 1e-6);
    EXPECT_TRUE(parseNonNegative("0", v));
    EXPECT_EQ(v, 0.0);
}

/** A parser over every kind of option, with the defaults it keeps
 *  when an option is absent or refused. */
struct Cli
{
    bool fast = false;
    std::string dir = "none";
    std::uint64_t len = 400'000;
    unsigned phases = 2;
    unsigned clients = 4;
    double rate = 0.5;
    CommandLine cli{"prog", "[options] [name...]"};

    Cli()
    {
        cli.flag("--fast", fast, "shrink sweeps");
        cli.defaultFrom("CONTEST_TEST_FAST");
        cli.text("--out-dir", "DIR", dir, "where artifacts go");
        cli.integer("--trace-len", "N", len, "instructions", 20);
        cli.defaultFrom("CONTEST_TEST_LEN");
        cli.integer("--phases", "N", phases, "phases", 1);
        cli.integer("--clients", "N", clients, "connections", 1, 1024);
        cli.number("--rate", "F", rate, "a fraction", 1.0);
    }
    Cli(const Cli &) = delete;
    Cli &operator=(const Cli &) = delete;

    CommandLine::Parsed
    parse(const std::vector<std::string> &args)
    {
        return cli.parse(args);
    }
};

TEST(CommandLine, TakesAValueAfterASpaceOrAnEqualsSign)
{
    Cli c;
    auto p = c.parse({"--out-dir", "a", "--trace-len=5000", "--clients",
                      "8", "--rate=0.25", "--fast", "--out-dir=b=c"});
    EXPECT_EQ(p.error, "");
    EXPECT_FALSE(p.help);
    EXPECT_TRUE(p.positionals.empty());
    EXPECT_TRUE(c.fast);
    EXPECT_EQ(c.dir, "b=c");
    EXPECT_EQ(c.len, 5000u);
    EXPECT_EQ(c.clients, 8u);
    EXPECT_EQ(c.rate, 0.25);
    EXPECT_EQ(c.phases, 2u);
}

TEST(CommandLine, KeepsPositionalsInOrderBetweenOptions)
{
    Cli c;
    auto p = c.parse({"fig06", "--fast", "fig08", "--trace-len", "40000",
                      "-", "fig13"});
    EXPECT_EQ(p.error, "");
    EXPECT_EQ(p.positionals,
              (std::vector<std::string>{"fig06", "fig08", "-", "fig13"}));
    EXPECT_TRUE(c.fast);
    EXPECT_EQ(c.len, 40000u);
}

TEST(CommandLine, NamesAMissingValueAndAnUnknownOption)
{
    const std::pair<std::vector<std::string>, const char *> bad[] = {
        {{"--trace-len"}, "--trace-len: needs a value"},
        {{"fig06", "--out-dir"}, "--out-dir: needs a value"},
        {{"--bogus"}, "--bogus: unknown option"},
        {{"--bogus=1"}, "--bogus: unknown option"},
        {{"-x"}, "-x: unknown option"},
        {{"--fast=1"}, "--fast '1': takes no value"},
        {{"--seed", "7"}, "--seed: unknown option"}};
    for (const auto &[args, why] : bad) {
        Cli c;
        EXPECT_EQ(c.parse(args).error, why) << args[0];
    }
}

TEST(CommandLine, RefusesNumbersOutsideTheirRange)
{
    const std::pair<std::vector<std::string>, const char *> bad[] = {
        {{"--trace-len", "0"}, "--trace-len '0': below 20"},
        {{"--trace-len", "19"}, "--trace-len '19': below 20"},
        {{"--trace-len", "-1"}, "--trace-len '-1': negative"},
        {{"--trace-len=4k"}, "--trace-len '4k': trailing garbage"},
        {{"--clients", "1025"}, "--clients '1025': above 1024"},
        {{"--phases", "4294967296"},
         "--phases '4294967296': above 4294967295"},
        {{"--rate", "1.5"}, "--rate '1.5': above 1"},
        {{"--rate", "inf"}, "--rate 'inf': not finite"}};
    for (const auto &[args, why] : bad) {
        Cli c;
        EXPECT_EQ(c.parse(args).error, why) << args[0];
        // A refused value leaves the default alone.
        EXPECT_EQ(c.len, 400'000u);
        EXPECT_EQ(c.clients, 4u);
        EXPECT_EQ(c.rate, 0.5);
    }
    Cli c;
    EXPECT_EQ(c.parse({"--trace-len", "20", "--clients", "1024", "--rate",
                       "1", "--phases", "4294967295"})
                  .error,
              "");
    EXPECT_EQ(c.len, 20u);
    EXPECT_EQ(c.clients, 1024u);
    EXPECT_EQ(c.rate, 1.0);
    EXPECT_EQ(c.phases, 4294967295u);
}

TEST(CommandLine, HelpStopsTheParse)
{
    for (const char *help : {"--help", "-h"}) {
        Cli c;
        auto p = c.parse({"fig06", help, "--bogus", "--trace-len", "0"});
        EXPECT_TRUE(p.help) << help;
        EXPECT_EQ(p.error, "") << help;
        EXPECT_EQ(c.len, 400'000u) << help;
    }
    // The first mistake wins over a later --help.
    Cli c;
    auto p = c.parse({"--bogus", "--help"});
    EXPECT_FALSE(p.help);
    EXPECT_EQ(p.error, "--bogus: unknown option");
}

TEST(CommandLine, AVariableGivesTheDefaultAndAFlagOverridesIt)
{
    ::setenv("CONTEST_TEST_LEN", "5000", 1);
    ::setenv("CONTEST_TEST_FAST", "1", 1);
    Cli fromEnv;
    EXPECT_EQ(fromEnv.parse({}).error, "");
    EXPECT_EQ(fromEnv.len, 5000u);
    EXPECT_TRUE(fromEnv.fast);

    Cli fromLine;
    EXPECT_EQ(fromLine.parse({"--trace-len=40000"}).error, "");
    EXPECT_EQ(fromLine.len, 40000u);

    // 0 leaves a switch off, and an empty variable counts as unset.
    ::setenv("CONTEST_TEST_FAST", "0", 1);
    ::setenv("CONTEST_TEST_LEN", "", 1);
    Cli off;
    EXPECT_EQ(off.parse({}).error, "");
    EXPECT_FALSE(off.fast);
    EXPECT_EQ(off.len, 400'000u);
    ::unsetenv("CONTEST_TEST_LEN");
    ::unsetenv("CONTEST_TEST_FAST");
}

TEST(CommandLine, RefusesABadVariableByName)
{
    // Every shape strtoull would mis-handle silently (trailing
    // garbage, a sign, no digits, overflow, blanks), and a value
    // outside the option's range, is a mistake named after the
    // variable, and the default stays.
    for (const char *bad :
         {"4abc", "12 8", "-1", "-0", "abc", "0x10", "3.5",
          "99999999999999999999", "  ", "+", "19"}) {
        ::setenv("CONTEST_TEST_LEN", bad, 1);
        Cli c;
        const std::string error = c.parse({}).error;
        EXPECT_EQ(error.rfind(std::string("CONTEST_TEST_LEN '") + bad
                                  + "': ",
                              0),
                  0u)
            << error;
        EXPECT_EQ(c.len, 400'000u) << bad;
        // A flag on the line leaves the variable unread.
        Cli flagged;
        EXPECT_EQ(flagged.parse({"--trace-len", "42"}).error, "");
    }
    // Leading blanks before a clean number are still accepted.
    ::setenv("CONTEST_TEST_LEN", "  42", 1);
    Cli c;
    EXPECT_EQ(c.parse({}).error, "");
    EXPECT_EQ(c.len, 42u);
    ::unsetenv("CONTEST_TEST_LEN");

    // A switch's variable is an integer: "yes" is not "on".
    ::setenv("CONTEST_TEST_FAST", "yes", 1);
    Cli yes;
    EXPECT_EQ(yes.parse({}).error, "CONTEST_TEST_FAST 'yes': not a number");
    EXPECT_FALSE(yes.fast);
    ::unsetenv("CONTEST_TEST_FAST");
}

TEST(CommandLine, RunSettingsDefaultToTheirVariables)
{
    auto parse = [](RunSettings &run, std::vector<std::string> args) {
        CommandLine cli("prog", "[options]");
        run.declare(cli);
        return cli.parse(args).error;
    };
    for (const char *var :
         {"CONTEST_TRACE_LEN", "CONTEST_SEED", "CONTEST_FAST", "CONTEST_JOBS"})
        ::unsetenv(var);
    RunSettings plain;
    EXPECT_EQ(parse(plain, {}), "");
    EXPECT_EQ(plain.traceLen, 400'000u);
    EXPECT_EQ(plain.seed, 2009u);
    EXPECT_FALSE(plain.fast);
    EXPECT_GE(plain.jobs, 1u);

    ::setenv("CONTEST_JOBS", "3", 1);
    ::setenv("CONTEST_FAST", "1", 1);
    RunSettings fromEnv;
    EXPECT_EQ(parse(fromEnv, {"--seed", "7"}), "");
    EXPECT_EQ(fromEnv.jobs, 3u);
    EXPECT_TRUE(fromEnv.fast);
    EXPECT_EQ(fromEnv.seed, 7u);
    RunSettings flagged;
    EXPECT_EQ(parse(flagged, {"--jobs", "2"}), "");
    EXPECT_EQ(flagged.jobs, 2u);
    const RunSettings probe = RunSettings::fromEnvironment();
    EXPECT_EQ(probe.jobs, 3u);
    EXPECT_TRUE(probe.fast);

    // Jobs outside [1, 1024] and a trace shorter than one region are
    // usage errors, from a variable as from a flag.
    ::setenv("CONTEST_JOBS", "0", 1);
    RunSettings bad;
    EXPECT_EQ(parse(bad, {}), "CONTEST_JOBS '0': below 1");
    ::setenv("CONTEST_JOBS", "abc", 1);
    EXPECT_EQ(parse(bad, {}), "CONTEST_JOBS 'abc': not a number");
    ::unsetenv("CONTEST_JOBS");
    ::unsetenv("CONTEST_FAST");
    EXPECT_EQ(parse(bad, {"--jobs", "0"}), "--jobs '0': below 1");
    EXPECT_EQ(parse(bad, {"--jobs", "1025"}), "--jobs '1025': above 1024");
    ::setenv("CONTEST_TRACE_LEN", "5", 1);
    EXPECT_EQ(parse(bad, {}), "CONTEST_TRACE_LEN '5': below 20");
    ::unsetenv("CONTEST_TRACE_LEN");
}

TEST(CommandLine, BuildsTheUsageFromTheDeclarations)
{
    bool quiet = false;
    std::uint64_t count = 1;
    CommandLine cli("prog", "run <name> [options]\nlist", "Runs things.");
    cli.flag("--quiet", quiet, "say less");
    cli.integer("--count", "N", count, "how many,\nat least 1", 1);
    cli.defaultFrom("PROG_COUNT");
    EXPECT_EQ(cli.usage(), "usage: prog run <name> [options]\n"
                           "       prog list\n"
                           "\n"
                           "Runs things.\n"
                           "\n"
                           "  --quiet     say less\n"
                           "  --count N   how many,\n"
                           "              at least 1 [env: PROG_COUNT]\n"
                           "  -h, --help  print this usage and exit\n");
}

TEST(CommandLineDeathTest, HelpExitsZeroAndAMistakeTwoWithTheUsage)
{
    auto run = [](std::vector<std::string> words) {
        Cli c;
        std::vector<char *> argv;
        for (auto &w : words)
            argv.push_back(w.data());
        c.cli.parse(static_cast<int>(argv.size()), argv.data());
        std::exit(3);
    };
    EXPECT_EXIT(run({"prog", "--help"}), testing::ExitedWithCode(0), "");
    EXPECT_EXIT(run({"prog", "--trace-len", "0"}),
                testing::ExitedWithCode(2),
                "prog: --trace-len '0': below 20\nusage: prog \\[options");
    EXPECT_EXIT(run({"prog", "--out-dir"}), testing::ExitedWithCode(2),
                "prog: --out-dir: needs a value\nusage: prog");
    EXPECT_EXIT(run({"prog", "fig06"}), testing::ExitedWithCode(3), "");
    Cli c;
    EXPECT_EXIT(c.cli.fail("unknown experiment 'x'"),
                testing::ExitedWithCode(2),
                "prog: unknown experiment 'x'\nusage: prog");
}

} // namespace
} // namespace contest
