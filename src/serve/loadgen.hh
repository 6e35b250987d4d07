/**
 * @file
 * Load generator for the contest service, behind the contest_load
 * CLI.
 *
 * A LoadSpec describes one phase: how many client connections, how
 * many requests each, the single/contest request mix (drawn from a
 * seeded Rng, so a "cold" and a "warm" phase with the same seed
 * issue the *identical* request sequence — that identity is what
 * makes the warm phase a pure cache measurement), and optionally an
 * open-loop request rate. runLoadPhase() runs the phase with one
 * thread per client, samples the server's simulation counters
 * before and after, and returns client-side latency percentiles
 * plus the server-side work deltas.
 */

#ifndef CONTEST_SERVE_LOADGEN_HH
#define CONTEST_SERVE_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/socket.hh"

namespace contest
{

/** One load phase's shape. */
struct LoadSpec
{
    ServeTarget target;
    /** Concurrent client connections. */
    unsigned clients = 4;
    /** Requests issued per client. */
    unsigned requestsPerClient = 16;
    /** Fraction of requests that are 2-way contests (the rest are
     *  single-core runs). */
    double contestFraction = 0.25;
    /** Benchmarks to draw from (must be valid trace profiles). */
    std::vector<std::string> benches;
    /** Core types to draw from (must be palette names). */
    std::vector<std::string> cores;
    /** Seed of the request mix; equal seeds give equal mixes. */
    std::uint64_t mixSeed = 1;
    /**
     * Open-loop request rate per client in requests/second; 0 runs
     * closed-loop (each client fires its next request the moment
     * the previous response lands).
     */
    double openLoopRps = 0.0;
};

/** One phase's measured outcome. */
struct LoadPhase
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    /** Responses whose timing.warm flag was set. */
    std::uint64_t warmResponses = 0;
    /** Phase wall-clock in seconds. */
    double wallSec = 0.0;
    /** Per-request round-trip latencies in ms, sorted ascending. */
    std::vector<double> latencyMs;
    /** Single simulations the server executed during the phase. */
    std::uint64_t simsDuring = 0;
    /** Contested simulations the server executed during the phase. */
    std::uint64_t contestsDuring = 0;

    /** Achieved request rate over the phase. */
    double
    rps() const
    {
        return wallSec > 0.0
                   ? static_cast<double>(ok) / wallSec
                   : 0.0;
    }

    /** Latency percentile in ms (p in [0, 100]); 0 when empty. */
    double percentileMs(double p) const;
};

/**
 * Run one load phase against a running server. Each client thread
 * draws its own deterministic request stream from
 * (spec.mixSeed, client index), so phase results are reproducible
 * and identical specs replay identical mixes.
 *
 * @return false with @p error filled when the server is unreachable
 *         or the stats probes fail; individual request failures are
 *         counted in LoadPhase::errors instead
 */
bool runLoadPhase(const LoadSpec &spec, LoadPhase &out,
                  std::string *error);

} // namespace contest

#endif // CONTEST_SERVE_LOADGEN_HH
