/**
 * @file
 * Unit tests for the exploration substrate: figures of merit, CMP
 * combination search, and the simulated-annealing explorer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "explore/annealer.hh"
#include "explore/cmp_design.hh"
#include "explore/merit.hh"

namespace contest
{
namespace
{

/** A small matrix with a known structure: 3 benchmarks, 3 cores. */
IptMatrix
toyMatrix()
{
    IptMatrix m;
    m.benchNames = {"b0", "b1", "b2"};
    m.coreNames = {"c0", "c1", "c2"};
    m.ipt = {
        {4.0, 1.0, 2.0}, // b0 loves c0
        {1.0, 4.0, 2.0}, // b1 loves c1
        {1.0, 1.0, 2.0}, // b2 loves c2
    };
    m.validate();
    return m;
}

TEST(Merit, BestCoreSelection)
{
    auto m = toyMatrix();
    std::vector<std::size_t> all{0, 1, 2};
    EXPECT_EQ(bestCoreFor(m, 0, all), 0u);
    EXPECT_EQ(bestCoreFor(m, 1, all), 1u);
    EXPECT_EQ(bestCoreFor(m, 2, all), 2u);
    std::vector<std::size_t> pair{1, 2};
    EXPECT_EQ(bestCoreFor(m, 0, pair), 2u);
}

TEST(Merit, AvgAndHarScores)
{
    auto m = toyMatrix();
    std::vector<std::size_t> all{0, 1, 2};
    // Best IPTs are 4, 4, 2.
    EXPECT_NEAR(scoreCmp(m, all, Merit::Avg), 10.0 / 3.0, 1e-12);
    EXPECT_NEAR(scoreCmp(m, all, Merit::Har),
                3.0 / (0.25 + 0.25 + 0.5), 1e-12);
}

TEST(Merit, CwHarPenalizesSharedCores)
{
    auto m = toyMatrix();
    // With only c2 available, all three benchmarks share one core
    // type: each effective IPT is divided by 3.
    std::vector<std::size_t> only_c2{2};
    double base = scoreCmp(m, only_c2, Merit::Har);
    double cw = scoreCmp(m, only_c2, Merit::CwHar);
    EXPECT_NEAR(cw, base / 3.0, 1e-12);
}

TEST(Merit, CwHarPrefersBalancedPreferences)
{
    // Two candidate pairs with the same best-IPTs but different
    // sharing: cw-har must prefer the balanced one.
    IptMatrix m;
    m.benchNames = {"b0", "b1"};
    m.coreNames = {"c0", "c1", "c2"};
    m.ipt = {
        {3.0, 3.1, 3.0},
        {3.0, 3.1, 3.0},
    };
    m.validate();
    // Pair {c1, c2}: both prefer c1 (3.1) -> shared.
    // Pair {c0, c2}: tie broken to earlier index; both prefer c0.
    double shared = scoreCmp(m, {1, 2}, Merit::CwHar);
    double har_shared = scoreCmp(m, {1, 2}, Merit::Har);
    EXPECT_NEAR(shared, har_shared / 2.0, 1e-12);
}

TEST(Merit, MatrixLookupsAndValidation)
{
    auto m = toyMatrix();
    EXPECT_EQ(m.coreIndex("c1"), 1u);
    EXPECT_EQ(m.benchIndex("b2"), 2u);
    EXPECT_EXIT(m.coreIndex("zz"), ::testing::ExitedWithCode(1),
                "unknown core");
    IptMatrix bad = m;
    bad.ipt[0][0] = -1.0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "non-positive");
}

TEST(CmpDesign, FindsTheObviousPair)
{
    auto m = toyMatrix();
    auto d = designCmp(m, 2, Merit::Har, "TEST");
    // The harmonic mean is maximized by covering b0 and b1's strong
    // cores: {c0, c1} gives best IPTs {4, 4, 1}; {c0, c2} gives
    // {4, 2, 2}; {c1, c2} gives {2, 4, 2}.
    // har({4,4,1}) = 2.0; har({4,2,2}) = 2.4; har({2,4,2}) = 2.4.
    EXPECT_EQ(d.cores.size(), 2u);
    EXPECT_NEAR(d.score, 2.4, 1e-9);
}

TEST(CmpDesign, HomPicksBestSingle)
{
    auto m = toyMatrix();
    auto hom = designHom(m, Merit::Avg, "HOM");
    // avg per single core: c0: 2.0, c1: 2.0, c2: 2.0 — tie; any is
    // acceptable, but the score must be 2.0.
    EXPECT_EQ(hom.cores.size(), 1u);
    EXPECT_NEAR(hom.score, 2.0, 1e-12);
}

TEST(CmpDesign, HetAllUsesEveryCore)
{
    auto m = toyMatrix();
    auto all = designHetAll(m, "HET-ALL");
    EXPECT_EQ(all.cores.size(), 3u);
    EXPECT_NEAR(designHarmonicIpt(m, all),
                3.0 / (0.25 + 0.25 + 0.5), 1e-12);
    EXPECT_EQ(designCoreNames(m, all), "c0 & c1 & c2");
}

TEST(CmpDesign, CombinationCountIsExhaustive)
{
    // Verify the search visits all C(5,2)=10 combinations by making
    // the optimum an "unlikely" pair.
    IptMatrix m;
    m.benchNames = {"b0"};
    m.coreNames = {"c0", "c1", "c2", "c3", "c4"};
    m.ipt = {{1.0, 1.0, 1.0, 1.0, 9.0}};
    m.validate();
    auto d = designCmp(m, 2, Merit::Har, "X");
    EXPECT_TRUE(std::find(d.cores.begin(), d.cores.end(), 4u)
                != d.cores.end());
    EXPECT_NEAR(d.score, 9.0, 1e-12);
}

TEST(Annealer, TechnologyModelTradesFrequencyForStructures)
{
    CoreConfig small;
    small.iqSize = 16;
    small.robSize = 64;
    small.width = 2;
    applyTechnologyModel(small);

    CoreConfig big = small;
    big.iqSize = 128;
    big.robSize = 1024;
    big.width = 8;
    applyTechnologyModel(big);

    EXPECT_GT(big.clockPeriodPs, small.clockPeriodPs);

    CoreConfig pipelined = big;
    pipelined.schedDepth = Cycles{4};
    pipelined.wakeupLatency = Cycles{3};
    pipelined.frontEndDepth = 12;
    applyTechnologyModel(pipelined);
    EXPECT_LT(pipelined.clockPeriodPs, big.clockPeriodPs);
}

TEST(Annealer, CacheLatencyFollowsCapacity)
{
    CoreConfig c;
    c.l1d = CacheConfig{128, 1, 32, Cycles{1}, false}; // 4KB
    applyTechnologyModel(c);
    Cycles small_lat = c.l1d.latency;
    c.l1d = CacheConfig{16384, 4, 64, Cycles{1}, false}; // 4MB
    applyTechnologyModel(c);
    EXPECT_GT(c.l1d.latency, small_lat);
}

/** Analytic objective: prefer wide machines with big ROBs but
 *  punish slow clocks. */
double
widthRobPerClock(const CoreConfig &c)
{
    double width_gain = std::sqrt(static_cast<double>(c.width));
    double rob_gain = std::log2(static_cast<double>(c.robSize));
    return width_gain * rob_gain * 1000.0
        / static_cast<double>(c.clockPeriodPs);
}

TEST(Annealer, ImprovesAnAnalyticObjective)
{
    // The annealer must find a better tradeoff than the narrow start
    // point.
    auto objective = widthRobPerClock;

    CoreConfig start;
    start.width = 2;
    start.robSize = 64;
    start.iqSize = 16;
    applyTechnologyModel(start);
    double start_score = objective(start);

    std::uint64_t calls = 0;
    auto counted = [&](const CoreConfig &c) {
        ++calls;
        return objective(c);
    };
    AnnealConfig ac;
    ac.steps = StepCount{400};
    ac.seed = 5;
    auto result = annealCoreConfig(counted, start, ac);
    EXPECT_GT(result.bestScore, start_score);
    EXPECT_EQ(calls, 401u);
    EXPECT_GT(result.accepted, 0u);
    result.best.validate();
}

TEST(Annealer, DeterministicForEqualSeeds)
{
    auto objective = [](const CoreConfig &c) {
        return static_cast<double>(c.width) * 100.0
            / static_cast<double>(c.clockPeriodPs);
    };
    CoreConfig start;
    AnnealConfig ac;
    ac.steps = StepCount{100};
    ac.seed = 9;
    auto r1 = annealCoreConfig(objective, start, ac);
    auto r2 = annealCoreConfig(objective, start, ac);
    EXPECT_EQ(r1.bestScore, r2.bestScore);
    EXPECT_EQ(r1.accepted, r2.accepted);
    EXPECT_EQ(r1.best.width, r2.best.width);
}

/** Candidates the walk proposes per round (annealer.cc). */
constexpr std::uint64_t roundSize = 4;

/**
 * Anneal widthRobPerClock from the default core and check what the
 * walk scored against what it proposed. A round proposes up to
 * roundSize candidates and scores them in order up to its first
 * acceptance, so the walk scores the start point plus one candidate
 * per step, while evaluations counts every proposal. At initial
 * temperature 0 the walk is greedy (a candidate is accepted iff its
 * score does not fall), so its rounds replay from the scores alone.
 */
void
checkScoredAgainstProposed(double temperature, std::uint64_t seed,
                           std::uint64_t steps)
{
    SCOPED_TRACE(testing::Message() << "temperature " << temperature
                                    << " seed " << seed << " steps "
                                    << steps);
    std::vector<double> scores;
    auto objective = [&scores](const CoreConfig &c) {
        scores.push_back(widthRobPerClock(c));
        return scores.back();
    };
    AnnealConfig ac;
    ac.steps = StepCount{steps};
    ac.seed = seed;
    ac.initialTemperature = temperature;
    auto r = annealCoreConfig(objective, CoreConfig{}, ac);
    ASSERT_EQ(scores.size(), 1 + steps);
    EXPECT_GE(r.evaluations, 1 + steps);
    EXPECT_LE(r.evaluations,
              1 + steps + r.accepted * (roundSize - 1));
    if (temperature > 0.0)
        return;

    double current = scores[0];
    std::uint64_t proposed = 0;
    std::uint64_t accepted = 0;
    std::size_t next = 1;
    while (next < scores.size()) {
        std::uint64_t round =
            std::min<std::uint64_t>(roundSize, scores.size() - next);
        proposed += round;
        for (std::uint64_t i = 0; i < round; ++i) {
            double score = scores[next++];
            if (score >= current) {
                current = score;
                ++accepted;
                break;
            }
        }
    }
    EXPECT_EQ(r.evaluations, 1 + proposed);
    EXPECT_EQ(r.accepted, accepted);
}

TEST(Annealer, ScoresOneCandidatePerStepWhateverTheBatch)
{
    for (double temperature : {0.2, 0.0})
        for (std::uint64_t seed = 1; seed <= 10; ++seed)
            for (std::uint64_t steps : {15, 40})
                checkScoredAgainstProposed(temperature, seed, steps);
}

TEST(Annealer, BatchOfFourWalkIsPinned)
{
    // The walk of a round scored up to its first acceptance equals
    // the walk of a round scored whole before the Metropolis scan;
    // these are that walk's values, bit for bit.
    std::uint64_t calls = 0;
    auto objective = [&calls](const CoreConfig &c) {
        ++calls;
        return widthRobPerClock(c);
    };
    AnnealConfig ac;
    ac.steps = StepCount{15};
    ac.seed = 13;
    auto r = annealCoreConfig(objective, CoreConfig{}, ac);
    EXPECT_EQ(r.bestScore, 0x1.6fd0eb66fd0ebp+6);
    EXPECT_EQ(r.accepted, 13u);
    EXPECT_EQ(r.evaluations, 47u);
    EXPECT_EQ(r.best.width, 4u);
    EXPECT_EQ(r.best.robSize, 256u);
    EXPECT_EQ(r.best.clockPeriodPs, TimePs{174});
    EXPECT_EQ(calls, 16u);
}

} // namespace
} // namespace contest
