/**
 * @file
 * Load generator for the contest service. Connects to a running
 * contest_serve, issues a deterministic single/contest request mix
 * from N concurrent client connections, and reports throughput,
 * latency percentiles, warm-hit counts, and how many simulations the
 * server actually executed during each phase.
 *
 * Phases repeat the *identical* request mix (same --mix-seed), so
 * with --phases 2 the first phase measures the cold server and the
 * second measures pure cache service: the second phase's
 * "sims during" should be zero and its throughput far higher.
 *
 * Usage:
 *   contest_load --socket /tmp/contest.sock [--phases 2]
 *       [--clients 4] [--requests 16] [--contest-fraction 0.25]
 *       [--mix-seed 1] [--rps R] [--benches gcc,twolf,...]
 *       [--cores gcc,twolf,...] [--json]
 *
 * Exit status: 0 when every phase completed with zero failed
 * requests, 1 otherwise, 2 on a bad command line (common/cli.hh).
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "serve/loadgen.hh"

namespace
{

using namespace contest;

/** Most client connections (and threads) one phase may open. */
constexpr std::uint64_t maxClients = 1024;

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > pos)
            out.push_back(csv.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

JsonValue
phaseJson(const LoadPhase &phase)
{
    JsonValue p = JsonValue::object();
    p.set("sent", JsonValue::number(static_cast<double>(phase.sent)));
    p.set("ok", JsonValue::number(static_cast<double>(phase.ok)));
    p.set("errors",
          JsonValue::number(static_cast<double>(phase.errors)));
    p.set("warm_responses",
          JsonValue::number(
              static_cast<double>(phase.warmResponses)));
    p.set("wall_sec", JsonValue::number(phase.wallSec));
    p.set("rps", JsonValue::number(phase.rps()));
    p.set("p50_ms", JsonValue::number(phase.percentileMs(50)));
    p.set("p90_ms", JsonValue::number(phase.percentileMs(90)));
    p.set("p99_ms", JsonValue::number(phase.percentileMs(99)));
    p.set("sims_during",
          JsonValue::number(static_cast<double>(phase.simsDuring)));
    p.set("contests_during",
          JsonValue::number(
              static_cast<double>(phase.contestsDuring)));
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    LoadSpec spec;
    unsigned phases = 2;
    bool json = false;
    std::string benches = "gcc,twolf,crafty,vortex";
    std::string cores = benches;
    CommandLine cli("contest_load", "(--socket PATH | --port N) [options]");
    cli.text("--socket", "PATH", spec.target.unixPath,
             "connect to the Unix socket at PATH");
    cli.integer("--port", "N", spec.target.port,
                "connect to 127.0.0.1:N, N <= 65535", 0, 65535);
    cli.integer("--phases", "N", phases,
                "identical phases to run (default 2: cold then warm)", 1);
    cli.integer("--clients", "N", spec.clients,
                "concurrent connections, at most 1024 (default 4)", 1,
                maxClients);
    cli.integer("--requests", "N", spec.requestsPerClient,
                "requests per client (default 16)");
    cli.number("--contest-fraction", "F", spec.contestFraction,
               "fraction of 2-way contests (default 0.25)", 1.0);
    cli.integer("--mix-seed", "N", spec.mixSeed,
                "request mix seed (default 1)");
    cli.number("--rps", "R", spec.openLoopRps,
               "open-loop rate per client (default 0: closed loop)");
    cli.text("--benches", "a,b,...", benches, "benchmarks to draw from");
    cli.text("--cores", "a,b,...", cores, "core types to draw from");
    cli.flag("--json", json, "emit a JSON summary instead of text");
    if (!cli.parse(argc, argv).empty())
        cli.fail("takes no positional arguments");
    if (!spec.target.valid())
        cli.fail("needs --socket PATH or --port N");
    spec.benches = splitList(benches);
    spec.cores = splitList(cores);

    JsonValue summary = JsonValue::object();
    JsonValue phaseArray = JsonValue::array();
    bool clean = true;
    for (unsigned p = 0; p < phases; ++p) {
        LoadPhase phase;
        std::string error;
        if (!runLoadPhase(spec, phase, &error)) {
            std::fprintf(stderr, "contest_load: phase %u: %s\n", p,
                         error.c_str());
            return 1;
        }
        clean = clean && phase.errors == 0;
        const char *label =
            phases == 2 ? (p == 0 ? "cold" : "warm") : "phase";
        if (json) {
            JsonValue pj = phaseJson(phase);
            pj.set("label", JsonValue::str(
                                phases == 2
                                    ? label
                                    : "phase" + std::to_string(p)));
            phaseArray.push(std::move(pj));
        } else {
            std::printf(
                "%s[%u]: %llu ok / %llu sent (%llu errors), "
                "%.1f req/s, p50 %.2f ms, p90 %.2f ms, p99 %.2f "
                "ms, %llu warm, %llu single + %llu contest sims "
                "executed\n",
                label, p,
                static_cast<unsigned long long>(phase.ok),
                static_cast<unsigned long long>(phase.sent),
                static_cast<unsigned long long>(phase.errors),
                phase.rps(), phase.percentileMs(50),
                phase.percentileMs(90), phase.percentileMs(99),
                static_cast<unsigned long long>(
                    phase.warmResponses),
                static_cast<unsigned long long>(phase.simsDuring),
                static_cast<unsigned long long>(
                    phase.contestsDuring));
        }
    }
    if (json) {
        summary.set("phases", std::move(phaseArray));
        std::printf("%s\n", summary.dump(2).c_str());
    }
    std::fflush(stdout);
    return clean ? 0 : 1;
}
