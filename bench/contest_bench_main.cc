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
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "harness/scheduler.hh"

namespace
{

using namespace contest;

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: contest_bench [options] [experiment...]\n"
        "\n"
        "  --list           list registered experiments and exit\n"
        "  --all            run every registered experiment\n"
        "  --out-dir DIR    write one JSON artifact per experiment\n"
        "  --cache-dir DIR  persistent single-core result cache\n"
        "  --fast           shrink sweeps (CONTEST_FAST=1)\n"
        "  --trace-len N    instructions per trace\n"
        "  --seed N         workload generation seed\n"
        "  --jobs N         parallel harness concurrency\n"
        "  --timing         per-simulation timeline report\n");
}

/** Flags that take a value as `--flag V` or `--flag=V`. */
bool
valueFlag(int argc, char **argv, int &i, const char *flag,
          std::string &value)
{
    std::size_t n = std::strlen(flag);
    if (std::strcmp(argv[i], flag) == 0) {
        fatal_if(i + 1 >= argc, "%s needs a value", flag);
        value = argv[++i];
        return true;
    }
    if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') {
        value = argv[i] + n + 1;
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    applyJobsFlag(&argc, argv);

    bool run_all = false;
    bool list_only = false;
    bool timing = false;
    std::string out_dir;
    std::string value;
    std::vector<std::string> selected;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) {
            list_only = true;
        } else if (std::strcmp(argv[i], "--all") == 0) {
            run_all = true;
        } else if (std::strcmp(argv[i], "--fast") == 0) {
            setenv("CONTEST_FAST", "1", 1);
        } else if (std::strcmp(argv[i], "--timing") == 0) {
            timing = true;
        } else if (valueFlag(argc, argv, i, "--out-dir", value)) {
            out_dir = value;
        } else if (valueFlag(argc, argv, i, "--cache-dir", value)) {
            setenv("CONTEST_CACHE_DIR", value.c_str(), 1);
        } else if (valueFlag(argc, argv, i, "--trace-len", value)) {
            setenv("CONTEST_TRACE_LEN", value.c_str(), 1);
        } else if (valueFlag(argc, argv, i, "--seed", value)) {
            setenv("CONTEST_SEED", value.c_str(), 1);
        } else if (std::strcmp(argv[i], "--help") == 0
                   || std::strcmp(argv[i], "-h") == 0) {
            printUsage(stdout);
            return 0;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            printUsage(stderr);
            return 2;
        } else {
            selected.emplace_back(argv[i]);
        }
    }

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
            if (e == nullptr) {
                std::fprintf(stderr,
                             "unknown experiment '%s'; known:\n",
                             name.c_str());
                for (const ExperimentInfo *known : registry.all())
                    std::fprintf(stderr, "  %s\n",
                                 known->name.c_str());
                return 2;
            }
            to_run.push_back(e);
        }
    } else {
        printUsage(stdout);
        std::printf("\nregistered experiments:\n");
        for (const ExperimentInfo *e : registry.all())
            std::printf("  %-20s %s\n", e->name.c_str(),
                        e->title.c_str());
        return 2;
    }

    Runner &runner = benchRunner();
    SimTimeline timeline;
    runner.setTimeline(&timeline);
    ArtifactSink sink(out_dir);
    ThreadPool &pool = ThreadPool::global();
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
