/**
 * @file
 * Driver main for the experiment suite: contest_bench runs any
 * selection of the registered experiments in one process, sharing
 * one Runner so every simulation happens at most once for the whole
 * suite.
 *
 * Every run goes through the SuiteScheduler: the selected
 * experiments are posted to the shared pool up front and drained in
 * registry order, so experiment bodies overlap while stdout and
 * artifacts come out in the same order whichever body finishes
 * first. At --jobs 1 the draining thread runs each body in turn, in
 * order.
 *
 * Usage:
 *   contest_bench --list
 *   contest_bench fig06 fig08 [--out-dir artifacts]
 *   contest_bench --all [--fast] [--jobs N] [--cache-dir DIR]
 *                 [--timing]
 *
 * --trace-len, --seed, --fast and --jobs default to their CONTEST_*
 * variables (common/env.hh). A bad command line or variable prints
 * the usage and exits 2 (common/cli.hh).
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "common/cli.hh"
#include "harness/scheduler.hh"

using namespace contest;

int
main(int argc, char **argv)
{
    bool list_only = false;
    bool run_all = false;
    bool timing = false;
    std::string out_dir;
    std::string cache_dir;
    RunSettings settings;
    CommandLine cli("contest_bench", "[options] [experiment...]");
    cli.flag("--list", list_only, "list registered experiments and exit");
    cli.flag("--all", run_all, "run every registered experiment");
    cli.text("--out-dir", "DIR", out_dir,
             "write one JSON artifact per experiment");
    cli.text("--cache-dir", "DIR", cache_dir,
             "persistent single-core and contest result cache");
    settings.declare(cli);
    cli.flag("--timing", timing, "per-simulation timeline report");
    const std::vector<std::string> selected = cli.parse(argc, argv);

    const ExperimentRegistry &registry =
        ExperimentRegistry::instance();
    fatal_if(registry.size() == 0, "no experiments are registered");

    if (list_only) {
        for (const ExperimentInfo *e : registry.all())
            std::printf("%-22s %s\n", e->name.c_str(),
                        e->title.c_str());
        return 0;
    }

    std::vector<const ExperimentInfo *> to_run;
    if (run_all) {
        to_run = registry.all();
    } else if (!selected.empty()) {
        for (const auto &name : selected) {
            const ExperimentInfo *e = registry.find(name);
            if (e == nullptr)
                cli.fail("unknown experiment '" + name
                         + "' (--list names them)");
            to_run.push_back(e);
        }
    } else {
        std::fputs(cli.usage().c_str(), stdout);
        std::printf("\nregistered experiments:\n");
        for (const ExperimentInfo *e : registry.all())
            std::printf("  %-20s %s\n", e->name.c_str(),
                        e->title.c_str());
        return 2;
    }

    std::unique_ptr<ResultCache> cache;
    if (!cache_dir.empty())
        cache = std::make_unique<ResultCache>(cache_dir);
    ThreadPool pool(settings.jobs);
    Runner runner(settings, &pool);
    runner.setResultCache(cache.get());
    SimTimeline timeline;
    runner.setTimeline(&timeline);
    ArtifactSink sink(out_dir);
    using Clock = std::chrono::steady_clock;
    auto suite_start = Clock::now();
    auto report = [](const ExperimentInfo &e, double sec) {
        std::printf("-- %s finished in %.2f s\n\n", e.name.c_str(),
                    sec);
        std::fflush(stdout);
    };
    SuiteScheduler(runner, sink, pool).run(to_run, report);

    double suite_sec =
        std::chrono::duration<double>(Clock::now() - suite_start)
            .count();
    std::printf("== suite: %zu experiment(s) in %.2f s | %llu "
                "single-core simulation(s) + %llu contested run(s)",
                to_run.size(), suite_sec,
                static_cast<unsigned long long>(
                    runner.simulationsPerformed()),
                static_cast<unsigned long long>(
                    runner.contestsPerformed()));
    if (runner.resultCache() != nullptr)
        std::printf(", %llu + %llu disk cache hit(s) in %s",
                    static_cast<unsigned long long>(
                        runner.diskHits()),
                    static_cast<unsigned long long>(
                        runner.contestDiskHits()),
                    runner.resultCache()->directory().c_str());
    std::printf("\n");
    if (timing)
        std::fputs(timeline.renderReport(pool.jobs()).c_str(),
                   stdout);
    if (!out_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        std::string timeline_path = out_dir + "/SimTimeline.json";
        std::ofstream f(timeline_path, std::ios::trunc);
        fatal_if(!f.good(), "cannot open timeline file '%s'",
                 timeline_path.c_str());
        f << timeline.toJson(pool.jobs()).dump(2);
        f.close();
        fatal_if(!f.good(), "failed writing timeline file '%s'",
                 timeline_path.c_str());
        std::printf("== artifacts: %zu JSON file(s) under %s\n",
                    sink.writtenFiles().size(), out_dir.c_str());
    }
    std::fflush(stdout);
    return 0;
}
