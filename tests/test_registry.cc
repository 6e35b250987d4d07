/**
 * @file
 * Unit tests for the experiment registry and the suite-sharing
 * property it enables: experiments running back-to-back in one
 * process reuse the Runner's memoized single-core results, so the
 * second experiment performs zero new simulations. Also tests the
 * SuiteScheduler, the driver's only loop: artifacts and drain
 * callbacks follow submission order however the bodies finish.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/artifact.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "harness/scheduler.hh"

namespace contest
{
namespace
{

int firstRuns = 0;
int secondRuns = 0;

void
firstExperiment(ExperimentContext &ctx)
{
    ++firstRuns;
    FigureArtifact art = ctx.artifact();
    art.scalar("gcc_ipt",
               ctx.runner.single("gcc", "gcc").result.ipt);
    ctx.sink.emit(art);
}

void
secondExperiment(ExperimentContext &ctx)
{
    ++secondRuns;
    FigureArtifact art = ctx.artifact();
    // Same (bench, core) cells as the first experiment, plus one of
    // its own.
    art.scalar("gcc_ipt",
               ctx.runner.single("gcc", "gcc").result.ipt);
    art.scalar("vpr_ipt",
               ctx.runner.single("vpr", "gcc").result.ipt);
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("zz_test_first", "Registry test A",
                    firstExperiment);
REGISTER_EXPERIMENT("zz_test_second", "Registry test B",
                    secondExperiment);

TEST(Registry, FindsRegisteredExperiments)
{
    auto &reg = ExperimentRegistry::instance();
    const ExperimentInfo *a = reg.find("zz_test_first");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->title, "Registry test A");
    EXPECT_EQ(a->fn, &firstExperiment);
    EXPECT_EQ(reg.find("no_such_experiment"), nullptr);
}

TEST(Registry, ListsAllSortedByName)
{
    auto &reg = ExperimentRegistry::instance();
    auto all = reg.all();
    ASSERT_EQ(all.size(), reg.size());
    ASSERT_GE(all.size(), 2u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(Registry, RejectsDuplicateNames)
{
    EXPECT_EXIT(ExperimentRegistry::instance().add(
                    {"zz_test_first", "clone", firstExperiment}),
                ::testing::ExitedWithCode(1), "zz_test_first");
}

TEST(Registry, RejectsUnnamedOrNullExperiments)
{
    EXPECT_EXIT(ExperimentRegistry::instance().add(
                    {"", "anonymous", firstExperiment}),
                ::testing::ExitedWithCode(1),
                "needs a name and a function");
    EXPECT_EXIT(ExperimentRegistry::instance().add(
                    {"zz_test_null", "null fn", nullptr}),
                ::testing::ExitedWithCode(1),
                "needs a name and a function");
}

TEST(Registry, SecondExperimentReusesRunnerCache)
{
    // One process, one Runner, two experiments: the suite driver's
    // whole reason to exist. The second experiment re-requests the
    // first one's (bench, core) cell, which must be a pure cache hit.
    ThreadPool pool(1);
    Runner runner({4000, 9}, &pool);
    ArtifactSink sink("", /*echo=*/false);
    auto &reg = ExperimentRegistry::instance();

    const ExperimentInfo *first = reg.find("zz_test_first");
    const ExperimentInfo *second = reg.find("zz_test_second");
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);

    ExperimentContext ctx1{runner, sink, *first};
    first->fn(ctx1);
    std::uint64_t after_first = runner.simulationsPerformed();
    EXPECT_EQ(after_first, 1u);

    ExperimentContext ctx2{runner, sink, *second};
    second->fn(ctx2);
    // Only the genuinely new (vpr, gcc) cell simulates; the shared
    // gcc cell costs zero new single-core simulations.
    EXPECT_EQ(runner.simulationsPerformed(), after_first + 1);

    EXPECT_EQ(firstRuns, 1);
    EXPECT_EQ(secondRuns, 1);
    ASSERT_EQ(sink.emitted().size(), 2u);
    EXPECT_EQ(sink.emitted()[0].name, "zz_test_first");
    EXPECT_EQ(sink.emitted()[1].name, "zz_test_second");
    // Both experiments measured the identical memoized result.
    EXPECT_EQ(sink.emitted()[0].scalars[0].second,
              sink.emitted()[1].scalars[0].second);
}

TEST(Registry, ArtifactsCarryTheRunnersSettings)
{
    // The settings stamped on an artifact are the ones its runner
    // ran, whatever the process environment holds.
    ThreadPool pool(1);
    Runner runner({4000, 9, /*fast=*/true, /*jobs=*/1}, &pool);
    ArtifactSink sink("", /*echo=*/false);
    const ExperimentInfo *first =
        ExperimentRegistry::instance().find("zz_test_first");
    ASSERT_NE(first, nullptr);
    const ArtifactMeta meta =
        ExperimentContext{runner, sink, *first}.artifact().meta;
    EXPECT_EQ(meta.traceLen, 4000u);
    EXPECT_EQ(meta.seed, 9u);
    EXPECT_TRUE(meta.fast);
    EXPECT_EQ(meta.jobs, 1u);
}

/**
 * What the scheduler tests' toy experiments record. Experiment
 * bodies are plain function pointers, so they share this state.
 */
struct ToySuite
{
    ThreadPool *pool = nullptr;
    /** Whether "toy_a" waits for "toy_c" to finish first. */
    bool holdFirst = false;

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::string> finished;
    std::vector<std::thread::id> threads;
    bool firstTimedOut = false;
};

ToySuite *toy = nullptr;

/** Body shared by the toy experiments: a nested sweep on the pool,
 *  then one artifact whose scalar counts the sweep's tasks. */
void
toyExperiment(ExperimentContext &ctx)
{
    const std::string &name = ctx.info.name;
    {
        std::lock_guard<std::mutex> lock(toy->mu);
        toy->threads.push_back(std::this_thread::get_id());
    }
    if (toy->holdFirst && name == "toy_a") {
        std::unique_lock<std::mutex> lock(toy->mu);
        bool c_done = toy->cv.wait_for(
            lock, std::chrono::seconds(30), [] {
                for (const auto &f : toy->finished)
                    if (f == "toy_c")
                        return true;
                return false;
            });
        toy->firstTimedOut = !c_done;
    }

    std::atomic<int> tasks{0};
    toy->pool->parallelFor(8, [&](std::size_t) { ++tasks; });

    FigureArtifact art = ctx.artifact();
    art.scalar("nested_tasks", tasks.load());
    ctx.sink.emit(art);

    std::lock_guard<std::mutex> lock(toy->mu);
    toy->finished.push_back(name);
    toy->cv.notify_all();
}

/** Runs the three toy experiments through a SuiteScheduler on
 *  @p pool and checks what every scheduler run must guarantee. */
class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest() { toy = &state; }
    ~SchedulerTest() override { toy = nullptr; }

    void
    runSuite(ThreadPool &pool)
    {
        state.pool = &pool;
        Runner runner({4000, 9}, &pool);
        ArtifactSink sink("", /*echo=*/false);
        std::vector<const ExperimentInfo *> to_run{&infos[0], &infos[1],
                                                   &infos[2]};
        SuiteScheduler(runner, sink, pool)
            .run(to_run, [&](const ExperimentInfo &e, double) {
                // Each experiment's artifact reaches the real sink
                // before its drain callback fires.
                drained.push_back(e.name);
                ASSERT_EQ(sink.emitted().size(), drained.size());
                EXPECT_EQ(sink.emitted().back().name, e.name);
            });

        const std::vector<std::string> order{"toy_a", "toy_b", "toy_c"};
        EXPECT_EQ(drained, order);
        ASSERT_EQ(sink.emitted().size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(sink.emitted()[i].name, order[i]);
            ASSERT_EQ(sink.emitted()[i].scalars.size(), 1u);
            EXPECT_EQ(sink.emitted()[i].scalars[0].second, 8.0)
                << order[i] << "'s nested sweep did not complete";
        }
        EXPECT_EQ(state.finished.size(), 3u);
    }

    ToySuite state;
    ExperimentInfo infos[3] = {{"toy_a", "Toy A", toyExperiment},
                               {"toy_b", "Toy B", toyExperiment},
                               {"toy_c", "Toy C", toyExperiment}};
    std::vector<std::string> drained;
};

TEST_F(SchedulerTest, OneJobRunsBodiesInOrderOnTheCallingThread)
{
    ThreadPool pool(1);
    runSuite(pool);

    const std::vector<std::string> order{"toy_a", "toy_b", "toy_c"};
    EXPECT_EQ(state.finished, order);
    for (std::thread::id id : state.threads)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST_F(SchedulerTest, OutOfOrderCompletionDrainsInSubmissionOrder)
{
    // toy_a holds until toy_c has finished, so the bodies complete
    // out of submission order; the drain must not follow them.
    ThreadPool pool(4);
    state.holdFirst = true;
    runSuite(pool);

    EXPECT_FALSE(state.firstTimedOut)
        << "toy_c never finished while toy_a waited";
    auto at = [&](const char *name) {
        for (std::size_t i = 0; i < state.finished.size(); ++i)
            if (state.finished[i] == name)
                return i;
        return state.finished.size();
    };
    EXPECT_LT(at("toy_c"), at("toy_a"));
}

} // namespace
} // namespace contest
