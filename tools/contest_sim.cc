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
 * Options:
 *   --insts N       trace length (default 200000)
 *   --seed N        workload seed (default 2009)
 *   --latency NS    GRB latency in nanoseconds (default 1)
 *   --trace FILE    replay a saved trace instead of generating
 *   --style S       injection style: portsteal | markready
 *   --jobs N        matrix-sweep concurrency (default CONTEST_JOBS
 *                   or the hardware concurrency); results are
 *                   identical for every N
 *   --quiet         suppress info logging
 *
 * A malformed number prints the usage and exits 2.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/thread_pool.hh"
#include "contest/system.hh"
#include "core/palette.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace contest;

struct Options
{
    std::uint64_t insts = 200'000;
    std::uint64_t seed = 2009;
    TimePs latencyPs{1'000};
    std::string traceFile;
    InjectionStyle style = InjectionStyle::PortSteal;
    unsigned jobs = defaultJobs();
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: contest_sim single <benchmark> <core> [options]\n"
        "       contest_sim contest <benchmark> <coreA> <coreB> "
        "[more cores] [options]\n"
        "       contest_sim matrix [options]\n"
        "       contest_sim save <benchmark> <file> [options]\n"
        "       contest_sim cores\n"
        "options: --insts N --seed N --latency NS --trace FILE\n"
        "         --style portsteal|markready --jobs N --quiet\n");
    std::exit(2);
}

/** @p text as a non-negative integer, or the usage. */
std::uint64_t
u64Arg(const std::string &text)
{
    std::uint64_t v = 0;
    if (!parseU64(text.c_str(), v))
        usage();
    return v;
}

/** @p text as a finite, non-negative number, or the usage. */
double
nonNegativeArg(const std::string &text)
{
    double v = 0.0;
    if (!parseNonNegative(text.c_str(), v))
        usage();
    return v;
}

Options
parseOptions(std::vector<std::string> &args)
{
    Options opt;
    std::vector<std::string> rest;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= args.size())
                usage();
            return args[++i];
        };
        if (a == "--insts") {
            opt.insts = u64Arg(next());
        } else if (a == "--seed") {
            opt.seed = u64Arg(next());
        } else if (a == "--latency") {
            opt.latencyPs =
                static_cast<TimePs>(nonNegativeArg(next()) * 1000.0);
        } else if (a == "--trace") {
            opt.traceFile = next();
        } else if (a == "--style") {
            std::string s = next();
            if (s == "portsteal")
                opt.style = InjectionStyle::PortSteal;
            else if (s == "markready")
                opt.style = InjectionStyle::MarkReady;
            else
                usage();
        } else if (a == "--jobs") {
            // Clamped to [1, 1024], as CONTEST_JOBS is.
            opt.jobs = static_cast<unsigned>(
                std::clamp<std::uint64_t>(u64Arg(next()), 1, 1024));
        } else if (a == "--quiet") {
            setLogLevel(LogLevel::Silent);
        } else {
            rest.push_back(a);
        }
    }
    args = rest;
    return opt;
}

TracePtr
loadWorkload(const std::string &bench, const Options &opt)
{
    if (!opt.traceFile.empty())
        return readTrace(opt.traceFile);
    return makeBenchmarkTrace(bench, opt.seed, opt.insts);
}

int
cmdSingle(std::vector<std::string> args)
{
    Options opt = parseOptions(args);
    if (args.size() != 2)
        usage();
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
cmdContest(std::vector<std::string> args)
{
    Options opt = parseOptions(args);
    if (args.size() < 3)
        usage();
    auto trace = loadWorkload(args[0], opt);

    std::vector<CoreConfig> cores;
    for (std::size_t i = 1; i < args.size(); ++i)
        cores.push_back(coreConfigByName(args[i]));

    ContestConfig cfg;
    cfg.grbLatencyPs = opt.latencyPs;
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
cmdMatrix(std::vector<std::string> args)
{
    Options opt = parseOptions(args);
    if (!args.empty())
        usage();

    // Sweep rows concurrently (each row shares one trace across its
    // simulations), buffering results so the printed matrix is
    // identical for every job count.
    const auto benches = profileNames();
    const auto &palette = appendixAPalette();
    std::vector<std::vector<double>> ipt(
        benches.size(), std::vector<double>(palette.size(), 0.0));
    ThreadPool pool(opt.jobs);
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
cmdSave(std::vector<std::string> args)
{
    Options opt = parseOptions(args);
    if (args.size() != 2)
        usage();
    auto trace = makeBenchmarkTrace(args[0], opt.seed, opt.insts);
    writeTrace(args[1], *trace);
    std::printf("wrote %zu instructions of '%s' to %s\n",
                trace->size(), args[0].c_str(), args[1].c_str());
    return 0;
}

int
cmdCores()
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "single")
        return cmdSingle(std::move(args));
    if (cmd == "contest")
        return cmdContest(std::move(args));
    if (cmd == "matrix")
        return cmdMatrix(std::move(args));
    if (cmd == "save")
        return cmdSave(std::move(args));
    if (cmd == "cores")
        return cmdCores();
    usage();
}
