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
 * requests, 1 otherwise, 2 on a malformed option.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"
#include "serve/loadgen.hh"

namespace
{

using namespace contest;

/** Most client connections (and threads) one phase may open. */
constexpr std::uint64_t maxClients = 1024;

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: contest_load (--socket PATH | --port N) [options]\n"
        "\n"
        "  --phases N            identical phases to run (default 2:\n"
        "                        cold then warm)\n"
        "  --clients N           concurrent connections, at most\n"
        "                        1024 (default 4)\n"
        "  --requests N          requests per client (default 16)\n"
        "  --contest-fraction F  fraction of 2-way contests\n"
        "                        (default 0.25)\n"
        "  --mix-seed N          request mix seed (default 1)\n"
        "  --rps R               open-loop rate per client\n"
        "                        (default 0: closed loop)\n"
        "  --benches a,b,...     benchmarks to draw from\n"
        "  --cores a,b,...       core types to draw from\n"
        "  --json                emit a JSON summary instead of text\n");
}

/** Reject @p flag's @p value: say why, print the usage, exit 2. */
[[noreturn]] void
badValue(const char *flag, const std::string &value, const char *why)
{
    std::fprintf(stderr, "contest_load: %s '%s': %s\n", flag,
                 value.c_str(), why);
    printUsage(stderr);
    std::exit(2);
}

/** @p flag's @p value as an integer in [@p lo, @p hi], or exit 2. */
std::uint64_t
integerArg(const char *flag, const std::string &value, std::uint64_t lo,
           std::uint64_t hi)
{
    std::uint64_t number = 0;
    const char *why = nullptr;
    if (!parseU64(value.c_str(), number, &why))
        badValue(flag, value, why);
    if (number < lo || number > hi) {
        const std::string range = "not in [" + std::to_string(lo)
            + ", " + std::to_string(hi) + "]";
        badValue(flag, value, range.c_str());
    }
    return number;
}

/** @p flag's @p value as a finite, non-negative number, or exit 2. */
double
realArg(const char *flag, const std::string &value)
{
    double v = 0.0;
    const char *why = nullptr;
    if (!parseNonNegative(value.c_str(), v, &why))
        badValue(flag, value, why);
    return v;
}

bool
valueFlag(int argc, char **argv, int &i, const char *flag,
          std::string &value)
{
    const std::size_t n = std::strlen(flag);
    if (std::strcmp(argv[i], flag) == 0) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", flag);
            std::exit(2);
        }
        value = argv[++i];
        return true;
    }
    if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') {
        value = argv[i] + n + 1;
        return true;
    }
    return false;
}

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
    spec.benches = {"gcc", "twolf", "crafty", "vortex"};
    spec.cores = {"gcc", "twolf", "crafty", "vortex"};
    unsigned phases = 2;
    bool json = false;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        if (valueFlag(argc, argv, i, "--socket", value)) {
            spec.target.unixPath = value;
        } else if (valueFlag(argc, argv, i, "--port", value)) {
            spec.target.port =
                static_cast<int>(integerArg("--port", value, 0, 65535));
        } else if (valueFlag(argc, argv, i, "--phases", value)) {
            phases = static_cast<unsigned>(
                integerArg("--phases", value, 1, UINT_MAX));
        } else if (valueFlag(argc, argv, i, "--clients", value)) {
            spec.clients = static_cast<unsigned>(
                integerArg("--clients", value, 1, maxClients));
        } else if (valueFlag(argc, argv, i, "--requests", value)) {
            spec.requestsPerClient = static_cast<unsigned>(
                integerArg("--requests", value, 0, UINT_MAX));
        } else if (valueFlag(argc, argv, i, "--contest-fraction",
                             value)) {
            spec.contestFraction = realArg("--contest-fraction", value);
            if (spec.contestFraction > 1.0)
                badValue("--contest-fraction", value, "above 1");
        } else if (valueFlag(argc, argv, i, "--mix-seed", value)) {
            spec.mixSeed =
                integerArg("--mix-seed", value, 0, UINT64_MAX);
        } else if (valueFlag(argc, argv, i, "--rps", value)) {
            spec.openLoopRps = realArg("--rps", value);
        } else if (valueFlag(argc, argv, i, "--benches", value)) {
            spec.benches = splitList(value);
        } else if (valueFlag(argc, argv, i, "--cores", value)) {
            spec.cores = splitList(value);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
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
    if (!spec.target.valid()) {
        printUsage(stderr);
        return 2;
    }

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
