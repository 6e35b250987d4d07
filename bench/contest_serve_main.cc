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
 *   contest_serve --port 0 [--trace-len N] [--seed N] [--fast]
 *                 [--cache-dir DIR] [--admission-depth N] [--quiet]
 *
 * SIGTERM and SIGINT drain gracefully: in-flight requests complete,
 * new ones are refused, then the process exits 0. --trace-len,
 * --seed, --fast and --jobs default to their CONTEST_* variables
 * (common/env.hh). A bad command line or variable prints the usage
 * and exits 2 (common/cli.hh).
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "common/cli.hh"
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

} // namespace

int
main(int argc, char **argv)
{
    ServeOptions opts;
    CommandLine cli("contest_serve",
                    "(--socket PATH | --port N) [options]",
                    "Every request runs at --trace-len and --seed, and "
                    "--fast shrinks\nthe sweeps of experiment requests.");
    cli.text("--socket", "PATH", opts.target.unixPath,
             "listen on a Unix socket at PATH");
    cli.integer("--port", "N", opts.target.port,
                "listen on 127.0.0.1:N, N <= 65535 (0 picks an\n"
                "ephemeral port, printed at startup)",
                0, 65535);
    opts.settings.declare(cli);
    cli.text("--cache-dir", "DIR", opts.cacheDir,
             "persistent result cache");
    cli.integer("--admission-depth", "N", opts.admissionDepth,
                "most simulation jobs in flight, queued plus\n"
                "running, N >= 1 (default 64); further requests\n"
                "wait in their connection",
                1);
    cli.flag("--quiet", opts.quiet,
             "suppress startup/shutdown log lines");
    if (!cli.parse(argc, argv).empty())
        cli.fail("takes no positional arguments");
    if (!opts.target.valid())
        cli.fail("needs --socket PATH or --port N");

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
