/**
 * @file
 * Unit tests for the common substrate: RNG, statistics, tables,
 * environment knobs, and the IPT conversion.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <type_traits>
#include <unordered_set>
#include <utility>

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

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(21);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RunningStat, TracksMoments)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.sample(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStat, ResetForgetsEverything)
{
    RunningStat s;
    s.sample(10.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10.0, 3); // buckets [0,10) [10,20) [20,30) + overflow
    h.sample(5.0);
    h.sample(15.0);
    h.sample(25.0);
    h.sample(35.0);
    h.sample(-1.0); // clamps to first bucket
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.numBuckets(), 3u);
}

TEST(Means, ArithmeticHarmonicGeometric)
{
    std::vector<double> xs{1.0, 2.0, 4.0};
    EXPECT_NEAR(arithmeticMean(xs), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(harmonicMean(xs), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
    EXPECT_NEAR(geometricMean(xs), 2.0, 1e-12);
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

TEST(Means, WeightedHarmonic)
{
    // Equal weights reduce to the plain harmonic mean.
    std::vector<double> xs{2.0, 4.0};
    std::vector<double> w{1.0, 1.0};
    EXPECT_NEAR(weightedHarmonicMean(xs, w), harmonicMean(xs), 1e-12);
    // All weight on one element returns (nearly) that element.
    std::vector<double> w2{1e9, 1.0};
    EXPECT_NEAR(weightedHarmonicMean(xs, w2), 2.0, 1e-6);
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

TEST(Env, ReadsAndDefaults)
{
    ::setenv("CONTEST_TEST_ENV_U64", "1234", 1);
    EXPECT_EQ(envU64("CONTEST_TEST_ENV_U64", 7), 1234u);
    EXPECT_EQ(envU64("CONTEST_TEST_ENV_MISSING", 7), 7u);
    ::setenv("CONTEST_TEST_ENV_FLAG", "1", 1);
    EXPECT_TRUE(envFlag("CONTEST_TEST_ENV_FLAG"));
    ::setenv("CONTEST_TEST_ENV_FLAG", "0", 1);
    EXPECT_FALSE(envFlag("CONTEST_TEST_ENV_FLAG"));
    ::unsetenv("CONTEST_TEST_ENV_U64");
    ::unsetenv("CONTEST_TEST_ENV_FLAG");
}

TEST(Env, MalformedValuesWarnAndFallBack)
{
    // Every malformed shape strtoull would mis-handle silently must
    // instead keep the caller's default: trailing garbage, negative
    // values (which strtoull wraps to 2^64-1), non-numbers, values
    // past 2^64-1 (which strtoull saturates), and pure whitespace.
    const char *name = "CONTEST_TEST_ENV_BAD";
    for (const char *bad :
         {"4abc", "12 8", "-1", "-0", "abc", "0x10", "3.5",
          "99999999999999999999", "  ", "+"}) {
        ::setenv(name, bad, 1);
        EXPECT_EQ(envU64(name, 7), 7u) << "value '" << bad << "'";
    }

    // Leading whitespace around a clean number is still accepted.
    ::setenv(name, "  42", 1);
    EXPECT_EQ(envU64(name, 7), 42u);

    // The extremes of the valid range parse exactly.
    ::setenv(name, "18446744073709551615", 1);
    EXPECT_EQ(envU64(name, 7), 18446744073709551615ull);
    ::setenv(name, "0", 1);
    EXPECT_EQ(envU64(name, 7), 0u);

    // envFlag shares the parser: garbage is "unset", not "truthy".
    ::setenv(name, "yes", 1);
    EXPECT_FALSE(envFlag(name));
    ::unsetenv(name);
}

TEST(Env, ParseU64NamesWhatIsWrong)
{
    // The parser behind envU64, also used for command-line values:
    // a rejected value leaves the output untouched and says why.
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
}

} // namespace
} // namespace contest
