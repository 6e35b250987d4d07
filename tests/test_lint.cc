/**
 * @file
 * Tests for contest_lint's line rules (tools/lint_core.hh). Each rule
 * must fire on the canonical bad shape, stay quiet on the idiomatic
 * fix, and honor the allow-comment escape hatch. The seeded fixture
 * in tests/lint_fixtures/ is linted too, so the binary's
 * non-zero-on-fixture acceptance check can never rot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "../tools/lint_core.hh"

namespace contest::lint
{
namespace
{

std::vector<std::string>
rulesIn(const std::vector<Violation> &vs)
{
    std::vector<std::string> rules;
    for (const auto &v : vs)
        rules.push_back(v.rule);
    return rules;
}

bool
fired(const std::vector<Violation> &vs, const std::string &rule)
{
    auto rules = rulesIn(vs);
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

TEST(LintBareU64, FlagsQuantityNamesOutsideTypesHeader)
{
    auto v = lintFile("src/core/x.cc",
                      "std::uint64_t arriveTimePs = 0;\n"
                      "std::uint64_t stallCycles = 0;\n"
                      "std::uint64_t fetchSeq = 0;\n"
                      "std::uint64_t grbLatency = 0;\n");
    EXPECT_EQ(v.size(), 4u);
    for (const auto &f : v)
        EXPECT_EQ(f.rule, "bare-u64-quantity");
}

TEST(LintBareU64, IgnoresNonQuantityNamesAndTypesHeader)
{
    EXPECT_TRUE(lintFile("src/core/x.cc",
                         "std::uint64_t steps = 0;\n"
                         "std::uint64_t hash = 0;\n"
                         "std::uint64_t footprintBytes = 0;\n")
                    .empty());
    // The Strong<> aliases themselves live on raw uint64_t.
    EXPECT_TRUE(lintFile("src/common/types.hh",
                         "#ifndef CONTEST_COMMON_TYPES_HH\n"
                         "#define CONTEST_COMMON_TYPES_HH\n"
                         "using TimePs = Strong<struct TimePsTag, "
                         "std::uint64_t>;\n"
                         "#endif\n")
                    .empty());
}

TEST(LintBareU64, AllowCommentSuppresses)
{
    EXPECT_TRUE(
        lintFile("src/core/x.cc",
                 "std::uint64_t rawPs = 0; "
                 "// contest-lint: allow(bare-u64-quantity)\n")
            .empty());
    EXPECT_TRUE(
        lintFile("src/core/x.cc",
                 "// contest-lint: allow(bare-u64-quantity)\n"
                 "std::uint64_t rawPs = 0;\n")
            .empty());
}

TEST(LintUnsignedSub, FlagsTheCanAcceptBugShape)
{
    // The exact PR 1 bug: performed - numMerged wraps when the
    // queue state goes stale, and the comparison happily accepts.
    auto v = lintFile("src/mem/q.cc",
                      "return performed[core] - numMerged < cap;\n");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].rule, "unsigned-sub");
    EXPECT_EQ(v[0].line, 1u);
}

TEST(LintUnsignedSub, ParenthesizedOrStrongIsQuiet)
{
    EXPECT_TRUE(
        lintFile("src/mem/q.cc",
                 "return (performed[core] - numMerged).count() < "
                 "cap;\n")
            .empty());
    EXPECT_TRUE(
        lintFile("src/mem/q.cc",
                 "return (performed[core] - numMerged) < cap;\n")
            .empty());
    // Arrow members and templates are not subtractions.
    EXPECT_TRUE(lintFile("src/mem/q.cc",
                         "if (it->seq < rob.front().seq) {}\n"
                         "while (trace->size() < num_insts) {}\n"
                         "std::vector<TimePs> v;\n")
                    .empty());
    // Numeric literal operands are not counter subtraction.
    EXPECT_TRUE(
        lintFile("src/mem/q.cc", "if (i < n - 1) {}\n").empty());
}

TEST(LintUnsignedSub, FlagsBothComparisonDirections)
{
    EXPECT_TRUE(fired(
        lintFile("src/mem/q.cc", "if (head - tail > cap) {}\n"),
        "unsigned-sub"));
    EXPECT_TRUE(fired(
        lintFile("src/mem/q.cc", "if (head - tail >= cap) {}\n"),
        "unsigned-sub"));
}

TEST(LintIncludeGuard, EnforcesPathDerivedName)
{
    EXPECT_TRUE(lintFile("src/mem/cache.hh",
                         "#ifndef CONTEST_MEM_CACHE_HH\n"
                         "#define CONTEST_MEM_CACHE_HH\n"
                         "#endif\n")
                    .empty());
    auto v = lintFile("src/mem/cache.hh",
                      "#ifndef CACHE_H\n#define CACHE_H\n#endif\n");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].rule, "include-guard");
    EXPECT_NE(v[0].message.find("CONTEST_MEM_CACHE_HH"),
              std::string::npos);
    // Missing guard entirely.
    EXPECT_TRUE(fired(lintFile("src/mem/cache.hh", "int x;\n"),
                      "include-guard"));
}

TEST(LintIncludeGuard, CollapsedDuplicateTokensAccepted)
{
    // bench/bench_common.hh guards as CONTEST_BENCH_COMMON_HH.
    EXPECT_TRUE(lintFile("bench/bench_common.hh",
                         "#ifndef CONTEST_BENCH_COMMON_HH\n"
                         "#define CONTEST_BENCH_COMMON_HH\n"
                         "#endif\n")
                    .empty());
}

TEST(LintNakedNew, FlagsRawNewButNotIdentifiers)
{
    EXPECT_TRUE(fired(
        lintFile("src/core/x.cc", "auto *p = new Widget();\n"),
        "naked-new"));
    EXPECT_TRUE(lintFile("src/core/x.cc",
                         "auto p = std::make_unique<Widget>();\n"
                         "int renewed = renew();\n"
                         "// a new comment mentioning new\n")
                    .empty());
}

TEST(LintNakedNew, OperatorNewAndIncludesAreNotExpressions)
{
    // <new> in an include directive and operator-new overloads /
    // allocator-internal calls are not owning new-expressions.
    EXPECT_TRUE(lintFile("src/core/x.cc",
                         "#include <new>\n"
                         "void *operator new(std::size_t n);\n"
                         "void *p = ::operator new(n, alignment);\n")
                    .empty());
    // A real new-expression next to them still fires.
    EXPECT_TRUE(fired(lintFile("src/core/x.cc",
                               "#include <new>\n"
                               "auto *p = new Widget();\n"),
                      "naked-new"));
}

TEST(LintStrip, DigitSeparatorIsNotACharLiteral)
{
    // 20'000 must not open a character literal: before the fix the
    // stripper swallowed everything to the next quote, hiding the
    // following lines from every rule and shifting reported line
    // numbers (which made allow-comments miss their findings).
    auto v = lintFile("src/core/x.cc",
                      "TimePs handlerPs{20'000};\n"
                      "int filler = 0;\n"
                      "std::uint64_t fetchSeq = 0;\n");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].rule, "bare-u64-quantity");
    EXPECT_EQ(v[0].line, 3u);
    // A genuine char literal still strips: the quoted 'new' must
    // not fire, and the one after the literal must.
    EXPECT_TRUE(lintFile("src/core/x.cc",
                         "char c = 'x'; // 'new' in a char context\n")
                    .empty());
}

TEST(LintCoreContainer, FlagsDequeAndPriorityQueueInCoreOnly)
{
    const char *decl = "std::deque<FetchEntry> fetchQueue;\n"
                       "std::priority_queue<Ev> completions;\n";
    const auto rules = rulesIn(lintFile("src/core/ooo_core.cc", decl));
    EXPECT_EQ(std::count(rules.begin(), rules.end(),
                         std::string("core-container")),
              2);
    // Outside src/core/ the containers are fine (result_fifo.hh
    // legitimately deques GRB arrival timestamps).
    EXPECT_FALSE(
        fired(lintFile("src/contest/result_fifo.cc", decl),
              "core-container"));
    // The replacements do not trip the rule.
    EXPECT_TRUE(lintFile("src/core/ooo_core.cc",
                         "SoaVec<Cycles> robValueReadyAt;\n"
                         "CycleRing<TimedReady> timedReady;\n")
                    .empty());
}

TEST(LintCoreContainer, AllowCommentSuppresses)
{
    EXPECT_TRUE(
        lintFile("src/core/x.cc",
                 "// contest-lint: allow(core-container)\n"
                 "std::deque<Snapshot> checkpoints;\n")
            .empty());
}

TEST(LintCoreSoa, FlagsVectorBoolInCoreOnly)
{
    const char *decl = "std::vector<bool> robCompleted;\n";
    EXPECT_TRUE(fired(lintFile("src/core/ooo_core.hh", decl),
                      "core-soa"));
    // Outside src/core/ the proxy container is tolerated.
    EXPECT_FALSE(fired(lintFile("src/contest/unit.hh", decl),
                       "core-soa"));
}

TEST(LintCoreSoa, FlagsContainersOfLocalPerEntryStructs)
{
    const char *decl = "struct RobEntry {\n"
                       "    int dest;\n"
                       "    int flags;\n"
                       "};\n"
                       "std::vector<RobEntry> rob;\n"
                       "SoaVec<RobEntry> robShadow;\n";
    const auto rules = rulesIn(lintFile("src/core/ooo_core.hh", decl));
    EXPECT_EQ(std::count(rules.begin(), rules.end(),
                         std::string("core-soa")),
              2);
    // Containers of foreign scalar-like types (Strong<> quantities,
    // config records defined elsewhere) are the intended layout.
    EXPECT_TRUE(lintFile("src/core/ooo_core.cc",
                         "SoaVec<InstSeq> iqSeq;\n"
                         "std::vector<InstSeq> staleSeqs;\n")
                    .empty());
    // A forward declaration is not a per-entry record definition.
    EXPECT_FALSE(fired(lintFile("src/core/ooo_core.hh",
                                "struct RobEntry;\n"
                                "std::vector<RobEntry> rob;\n"),
                       "core-soa"));
}

TEST(LintCoreSoa, AllowCommentSuppresses)
{
    EXPECT_TRUE(
        lintFile("src/core/ooo_core.cc",
                 "// contest-lint: allow(core-soa)\n"
                 "std::vector<bool> coldReplayMask;\n")
            .empty());
}

TEST(LintCoreContainer, FixtureContentTripsUnderCorePath)
{
    std::ifstream in(std::string(CONTEST_LINT_FIXTURE_DIR)
                     + "/bad_example.hh");
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(fired(lintFile("src/core/bad_example.hh", ss.str()),
                      "core-container"));
    EXPECT_TRUE(fired(lintFile("src/core/bad_example.hh", ss.str()),
                      "core-soa"));
    // Under its own path the fixture must stay free of the
    // core-scoped rules (the CI fixture acceptance check counts on
    // the other rules).
    EXPECT_FALSE(
        fired(lintFile("tests/lint_fixtures/bad_example.hh",
                       ss.str()),
              "core-container"));
    EXPECT_FALSE(
        fired(lintFile("tests/lint_fixtures/bad_example.hh",
                       ss.str()),
              "core-soa"));
}

TEST(LintRunnerBypass, FlagsSimulatorUseInBench)
{
    const char *code = "OooCore core(cfg, trace);\n"
                       "auto sys = std::make_unique<ContestSystem>(\n"
                       "    cores, trace);\n"
                       "double ipt = runSingle(cfg, trace).ipt;\n";
    const auto v = lintFile("bench/abl_x.cc", code);
    ASSERT_EQ(v.size(), 3u);
    for (const auto &f : v)
        EXPECT_EQ(f.rule, "runner-bypass");
    EXPECT_EQ(v[0].line, 1u);
    EXPECT_EQ(v[1].line, 2u);
    EXPECT_EQ(v[2].line, 4u);
    // Runner calls, references, scopes, comments and strings are
    // not simulations.
    EXPECT_TRUE(lintFile("bench/abl_x.cc",
                         "runner.single(bench, cfg);\n"
                         "const OooCore &c = sys.core(0);\n"
                         "OooCore::RetireCallback cb;\n"
                         "// runSingle would bypass the cache\n"
                         "const char *s = \"ContestSystem\";\n")
                    .empty());
}

TEST(LintRunnerBypass, SilentOutsideBench)
{
    const char *code = "OooCore core(cfg, trace);\n"
                       "ContestSystem sys(cores, trace);\n"
                       "double ipt = runSingle(cfg, trace).ipt;\n";
    for (const char *path : {"src/harness/runner.cc",
                             "tests/test_contest.cc",
                             "tools/contest_sim.cc",
                             "examples/quickstart.cpp"})
        EXPECT_FALSE(fired(lintFile(path, code), "runner-bypass"))
            << path;
}

TEST(LintRunnerBypass, AllowCommentSuppresses)
{
    EXPECT_TRUE(lintFile("bench/perf_x.cc",
                         "// contest-lint: allow(runner-bypass)\n"
                         "OooCore core(cfg, trace);\n"
                         "ContestSystem sys(cores, trace); "
                         "// contest-lint: allow(runner-bypass)\n")
                    .empty());
}

TEST(LintPanicMessage, RequiresInvariantNamingMessage)
{
    EXPECT_TRUE(fired(
        lintFile("src/core/x.cc", "panic(\"bad state\");\n"),
        "panic-message"));
    EXPECT_TRUE(
        lintFile("src/core/x.cc",
                 "panic_if(core >= performed.size(),\n"
                 "         \"SyncStoreQueue: core %u out of "
                 "range\", core);\n")
            .empty());
}

TEST(LintFixture, SeededFixtureTripsEveryRule)
{
    std::ifstream in(std::string(CONTEST_LINT_FIXTURE_DIR)
                     + "/bad_example.hh");
    ASSERT_TRUE(in.good())
        << "fixture missing: tests/lint_fixtures/bad_example.hh";
    std::ostringstream ss;
    ss << in.rdbuf();
    auto v = lintFile("tests/lint_fixtures/bad_example.hh", ss.str());
    EXPECT_TRUE(fired(v, "bare-u64-quantity"));
    EXPECT_TRUE(fired(v, "unsigned-sub"));
    EXPECT_TRUE(fired(v, "include-guard"));
    EXPECT_TRUE(fired(v, "naked-new"));
    EXPECT_TRUE(fired(v, "panic-message"));
    // The two allow-commented declarations must not be reported:
    // exactly two bare-u64 findings remain (startTimePs,
    // stallCycles).
    const auto rules = rulesIn(v);
    EXPECT_EQ(std::count(rules.begin(), rules.end(),
                         std::string("bare-u64-quantity")),
              2);
}

} // namespace
} // namespace contest::lint
