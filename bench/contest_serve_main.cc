/**
 * @file
 * The contest service daemon. Keeps the core palette, the synthetic
 * traces, the Runner's memo tables, and the on-disk result cache
 * hot in one long-lived process and serves single/contest/experiment
 * requests over a Unix or loopback-TCP socket (serve/server.hh has
 * the threading model, serve/protocol.hh the wire schema).
 *
 * Linked with the suite's experiment objects, so
 * `{"kind": "experiment", "name": "fig06"}` runs any registered
 * experiment against the shared warm Runner.
 *
 * Usage:
 *   contest_serve --socket /tmp/contest.sock [--jobs N]
 *   contest_serve --port 0 [--trace-len N] [--seed N]
 *                 [--cache-dir DIR] [--admission-depth N] [--quiet]
 *
 * SIGTERM and SIGINT drain gracefully: in-flight requests complete,
 * new ones are refused, then the process exits 0. A malformed
 * option exits 2 with the usage.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "common/log.hh"
#include "serve/server.hh"

namespace
{

using namespace contest;

/** The running server, for the signal handler. Written once before
 *  signals are installed. */
ContestServer *liveServer = nullptr;

void
handleStopSignal(int)
{
    // requestShutdown is async-signal-safe by contract (one atomic
    // store plus one self-pipe write).
    if (liveServer != nullptr)
        liveServer->requestShutdown();
}

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: contest_serve [options]\n"
        "\n"
        "  --socket PATH       listen on a Unix socket at PATH\n"
        "  --port N            listen on 127.0.0.1:N, N <= 65535\n"
        "                      (0 picks an ephemeral port, printed\n"
        "                      at startup)\n"
        "  --jobs N            simulation workers (default\n"
        "                      CONTEST_JOBS / hardware concurrency)\n"
        "  --trace-len N       instructions per trace\n"
        "  --seed N            workload generation seed\n"
        "  --cache-dir DIR     persistent result cache\n"
        "  --admission-depth N most simulation jobs in flight,\n"
        "                      queued plus running, N >= 1\n"
        "                      (default 64);\n"
        "                      further requests wait in their\n"
        "                      connection\n"
        "  --quiet             suppress startup/shutdown log lines\n");
}

/** Reject @p flag's @p value: say why, print the usage, exit 2. */
int
badValue(const char *flag, const std::string &value, const char *why)
{
    std::fprintf(stderr, "contest_serve: %s '%s': %s\n", flag,
                 value.c_str(), why);
    printUsage(stderr);
    return 2;
}

bool
valueFlag(int argc, char **argv, int &i, const char *flag,
          std::string &value)
{
    const std::size_t n = std::strlen(flag);
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

    ServeOptions opts;
    std::string value;
    std::uint64_t number = 0;
    const char *why = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (valueFlag(argc, argv, i, "--socket", value)) {
            opts.target.unixPath = value;
        } else if (valueFlag(argc, argv, i, "--port", value)) {
            if (!parseU64(value.c_str(), number, &why))
                return badValue("--port", value, why);
            if (number > 65535)
                return badValue("--port", value, "above 65535");
            opts.target.port = static_cast<int>(number);
        } else if (valueFlag(argc, argv, i, "--trace-len", value)) {
            setenv("CONTEST_TRACE_LEN", value.c_str(), 1);
        } else if (valueFlag(argc, argv, i, "--seed", value)) {
            setenv("CONTEST_SEED", value.c_str(), 1);
        } else if (valueFlag(argc, argv, i, "--cache-dir", value)) {
            opts.cacheDir = value;
        } else if (valueFlag(argc, argv, i, "--admission-depth",
                             value)) {
            if (!parseU64(value.c_str(), number, &why))
                return badValue("--admission-depth", value, why);
            if (number == 0)
                return badValue("--admission-depth", value,
                                "must be at least 1");
            opts.admissionDepth = static_cast<std::size_t>(number);
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opts.quiet = true;
        } else if (std::strcmp(argv[i], "--help") == 0
                   || std::strcmp(argv[i], "-h") == 0) {
            printUsage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            printUsage(stderr);
            return 2;
        }
    }
    if (!opts.target.valid()) {
        std::fprintf(stderr,
                     "contest_serve needs --socket PATH or "
                     "--port N\n");
        printUsage(stderr);
        return 2;
    }

    opts.jobs = defaultJobs();
    opts.traceLen = benchTraceLen();
    opts.seed = benchSeed();

    // The startup line carries the resolved (possibly ephemeral)
    // listen address, so it must be visible by default.
    if (!opts.quiet)
        setLogLevel(LogLevel::Inform);

    ContestServer server(std::move(opts));
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "contest_serve: %s\n", error.c_str());
        return 1;
    }

    liveServer = &server;
    struct sigaction sa = {};
    sa.sa_handler = handleStopSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    server.waitUntilStopped();
    return 0;
}
