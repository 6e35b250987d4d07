/**
 * @file
 * contest_sim — command-line driver for the library.
 *
 * Usage:
 *   contest_sim single  <benchmark> <core> [options]
 *   contest_sim contest <benchmark> <coreA> <coreB> [coreC ...]
 *                       [options]
 *   contest_sim matrix  [options]
 *   contest_sim save    <benchmark> <file> [options]
 *   contest_sim cores
 *
 * `contest_sim --help` lists the options. A bad command line prints
 * the usage and exits 2 (common/cli.hh).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/env.hh"
#include "common/thread_pool.hh"
#include "contest/system.hh"
#include "core/palette.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace contest;

/** Longest GRB latency, in ns: keeps the conversion to picoseconds
 *  far from overflow. Figure 8 sweeps up to 100 ns. */
constexpr double maxLatencyNs = 1e6;

struct Options
{
    std::uint64_t insts = 200'000;
    std::uint64_t seed = 2009;
    double latencyNs = 1.0;
    std::string traceFile;
    InjectionStyle style = InjectionStyle::PortSteal;
    std::uint64_t jobs = defaultJobs();
};

TracePtr
loadWorkload(const std::string &bench, const Options &opt)
{
    if (!opt.traceFile.empty())
        return readTrace(opt.traceFile);
    return makeBenchmarkTrace(bench, opt.seed, opt.insts);
}

int
cmdSingle(const std::vector<std::string> &args, const Options &opt)
{
    auto trace = loadWorkload(args[0], opt);
    const auto &core = coreConfigByName(args[1]);
    auto r = runSingle(core, trace);
    std::printf("%s on the %s core: %.3f inst/ns (IPC %.3f, "
                "%.1f us, %.1f uJ)\n",
                args[0].c_str(), core.name.c_str(), r.ipt,
                r.stats.ipc(),
                static_cast<double>(r.timePs) / 1e6,
                r.energy.totalNj() / 1000.0);
    std::printf("  mispredict rate %.2f%%, fetch stalled %llu of "
                "%llu cycles\n",
                r.stats.mispredictRate() * 100.0,
                static_cast<unsigned long long>(
                    r.stats.fetchStallBranch),
                static_cast<unsigned long long>(r.stats.cycles));
    return 0;
}

int
cmdContest(const std::vector<std::string> &args, const Options &opt)
{
    auto trace = loadWorkload(args[0], opt);

    std::vector<CoreConfig> cores;
    for (std::size_t i = 1; i < args.size(); ++i)
        cores.push_back(coreConfigByName(args[i]));

    ContestConfig cfg;
    cfg.grbLatencyPs = static_cast<TimePs>(opt.latencyNs * 1000.0);
    cfg.injectionStyle = opt.style;
    ContestSystem system(cores, trace, cfg);
    auto r = system.run();

    std::printf("%zu-way contest on %s: %.3f inst/ns, %llu lead "
                "changes, %.1f uJ total\n",
                cores.size(), args[0].c_str(), r.ipt,
                static_cast<unsigned long long>(r.leadChanges),
                r.totalEnergyNj() / 1000.0);
    for (std::size_t c = 0; c < cores.size(); ++c)
        std::printf("  %-7s led %5.1f%%, injected %llu%s\n",
                    cores[c].name.c_str(),
                    r.leadFraction[c] * 100.0,
                    static_cast<unsigned long long>(
                        r.coreStats[c].injected),
                    r.unitStats[c].saturated ? " (parked)" : "");
    return 0;
}

int
cmdMatrix(const std::vector<std::string> &, const Options &opt)
{
    // Sweep rows concurrently (each row shares one trace across its
    // simulations), buffering results so the printed matrix is
    // identical for every job count.
    const auto benches = profileNames();
    const auto &palette = appendixAPalette();
    std::vector<std::vector<double>> ipt(
        benches.size(), std::vector<double>(palette.size(), 0.0));
    // Clamped to [1, 1024], as CONTEST_JOBS is.
    ThreadPool pool(
        static_cast<unsigned>(std::clamp<std::uint64_t>(opt.jobs, 1, 1024)));
    pool.parallelFor(benches.size(), [&](std::size_t b) {
        auto trace =
            makeBenchmarkTrace(benches[b], opt.seed, opt.insts);
        for (std::size_t c = 0; c < palette.size(); ++c)
            ipt[b][c] = runSingle(palette[c], trace).ipt;
    });

    std::printf("%-8s", "");
    for (const auto &core : palette)
        std::printf("%8s", core.name.c_str());
    std::printf("\n");
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::printf("%-8s", benches[b].c_str());
        for (std::size_t c = 0; c < palette.size(); ++c)
            std::printf("%8.2f", ipt[b][c]);
        std::printf("\n");
    }
    std::fflush(stdout);
    return 0;
}

int
cmdSave(const std::vector<std::string> &args, const Options &opt)
{
    auto trace = makeBenchmarkTrace(args[0], opt.seed, opt.insts);
    writeTrace(args[1], *trace);
    std::printf("wrote %zu instructions of '%s' to %s\n",
                trace->size(), args[0].c_str(), args[1].c_str());
    return 0;
}

int
cmdCores(const std::vector<std::string> &, const Options &)
{
    std::printf("%-8s %5s %6s %6s %5s %9s %9s %7s\n", "core",
                "width", "ROB", "IQ", "GHz", "L1D", "L2", "peak");
    for (const auto &c : appendixAPalette())
        std::printf("%-8s %5u %6u %6u %5.2f %7lluKB %7lluKB "
                    "%5.1f/ns\n",
                    c.name.c_str(), c.width, c.robSize, c.iqSize,
                    c.frequencyGHz(),
                    static_cast<unsigned long long>(
                        c.l1d.capacityBytes() / 1024),
                    static_cast<unsigned long long>(
                        c.l2.capacityBytes() / 1024),
                    c.peakIps());
    return 0;
}

/** A command: its name, how many arguments it takes, its body. */
struct Command
{
    const char *name;
    std::size_t minArgs;
    std::size_t maxArgs;
    int (*run)(const std::vector<std::string> &, const Options &);
};

const Command commands[] = {
    {"single", 2, 2, cmdSingle},
    {"contest", 3, SIZE_MAX, cmdContest},
    {"matrix", 0, 0, cmdMatrix},
    {"save", 2, 2, cmdSave},
    {"cores", 0, 0, cmdCores},
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string style = "portsteal";
    bool quiet = false;
    CommandLine cli("contest_sim",
                    "single <benchmark> <core> [options]\n"
                    "contest <benchmark> <coreA> <coreB> [more cores] "
                    "[options]\n"
                    "matrix [options]\n"
                    "save <benchmark> <file> [options]\n"
                    "cores");
    cli.integer("--insts", "N", opt.insts,
                "trace length, N >= 1 (default 200000)", 1);
    cli.integer("--seed", "N", opt.seed, "workload seed (default 2009)");
    cli.number("--latency", "NS", opt.latencyNs,
               "GRB latency in nanoseconds, at most 1e6 (default 1)",
               maxLatencyNs);
    cli.text("--trace", "FILE", opt.traceFile,
             "replay a saved trace instead of generating");
    cli.text("--style", "S", style,
             "injection style: portsteal | markready");
    cli.integer("--jobs", "N", opt.jobs,
                "matrix-sweep concurrency (default CONTEST_JOBS or\n"
                "the hardware concurrency); results are identical\n"
                "for every N");
    cli.flag("--quiet", quiet, "suppress info logging");
    const std::vector<std::string> args = cli.parse(argc, argv);

    if (style == "markready")
        opt.style = InjectionStyle::MarkReady;
    else if (style != "portsteal")
        cli.fail("--style", style, "not portsteal or markready");
    if (quiet)
        setLogLevel(LogLevel::Silent);

    if (args.empty())
        cli.fail("needs a command");
    for (const Command &c : commands) {
        if (args[0] != c.name)
            continue;
        const std::vector<std::string> rest(args.begin() + 1, args.end());
        if (rest.size() < c.minArgs || rest.size() > c.maxArgs)
            cli.fail(args[0] + ": wrong number of arguments");
        return c.run(rest, opt);
    }
    cli.fail("unknown command '" + args[0] + "'");
}
