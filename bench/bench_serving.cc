/**
 * @file
 * Serving benchmark: measures the contest service end-to-end —
 * socket, framing, the admission bound, ThreadPool dispatch, Runner
 * memoization — by standing up an in-process server per --jobs value
 * and replaying the identical request mix twice. The first (cold)
 * phase simulates everything; the second (warm) phase must be served
 * entirely from the memo tables, which the connection readers answer
 * without a pool hop, so its requests/s measures framing, JSON and
 * key building alone and its executed-simulation count must be
 * zero.
 *
 * Registered standalone (REGISTER_EXPERIMENT_STANDALONE): the
 * artifact embeds wall-clock rates, so it can never be bit-stable
 * and stays out of `--all` and the golden gate. CI's serve-smoke job
 * runs it by name and archives BENCH_serving.json;
 * tools/bench_history.py appends its scalars to BENCH_history.json.
 */

#include "bench/bench_common.hh"

#include <string>
#include <unistd.h>
#include <vector>

#include "serve/loadgen.hh"
#include "serve/server.hh"

namespace contest
{
namespace
{

/** One jobs-value's cold/warm measurement. */
struct ServingSample
{
    unsigned jobs = 0;
    LoadPhase cold;
    LoadPhase warm;

    double
    warmSpeedup() const
    {
        return cold.rps() > 0.0 ? warm.rps() / cold.rps() : 0.0;
    }
};

void
runServing(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    const bool fast = benchFastMode();

    // The mix draws from a small palette corner so the cold phase
    // stays minutes-scale at the default trace length: up to 6
    // unique singles and 12 unique ordered contest pairs.
    LoadSpec spec;
    spec.benches = {"gcc", "twolf"};
    spec.cores = {"gcc", "twolf", "crafty"};
    spec.clients = 4;
    spec.requestsPerClient = fast ? 6 : 16;
    spec.contestFraction = 0.25;
    spec.mixSeed = 7;

    std::vector<ServingSample> samples;
    for (unsigned jobs : {1u, 2u, 4u}) {
        ServeOptions opts;
        opts.target.unixPath = "/tmp/contest_serving_"
                               + std::to_string(getpid()) + "_"
                               + std::to_string(jobs) + ".sock";
        opts.jobs = jobs;
        opts.traceLen = ctx.runner.traceLen();
        opts.seed = ctx.runner.workloadSeed();
        opts.quiet = true;

        // A fresh server (own Runner, own pool) per jobs value, so
        // every cold phase really is cold instead of riding the
        // previous sweep's memo tables.
        ContestServer server(opts);
        std::string error;
        fatal_if(!server.start(&error),
                 "BENCH_serving cannot start its in-process server: "
                 "%s",
                 error.c_str());

        spec.target = server.target();
        ServingSample sample;
        sample.jobs = jobs;
        fatal_if(!runLoadPhase(spec, sample.cold, &error),
                 "BENCH_serving cold phase failed against the "
                 "in-process server: %s",
                 error.c_str());
        fatal_if(!runLoadPhase(spec, sample.warm, &error),
                 "BENCH_serving warm phase failed against the "
                 "in-process server: %s",
                 error.c_str());
        server.requestShutdown();
        server.waitUntilStopped();
        ::unlink(opts.target.unixPath.c_str());
        samples.push_back(std::move(sample));
    }

    auto &t = art.table(
        "Contest service: identical mix served cold (everything "
        "simulates) then warm (memo tables only); "
        + std::to_string(spec.clients) + " clients x "
        + std::to_string(spec.requestsPerClient) + " requests");
    t.columns = {"jobs",         "cold req/s", "cold p99 ms",
                 "warm req/s",   "warm p99 ms", "warm/cold",
                 "warm sims"};
    for (const ServingSample &s : samples) {
        const std::uint64_t warmSims =
            s.warm.simsDuring + s.warm.contestsDuring;
        t.row({cellText(std::to_string(s.jobs)),
               cellNum(s.cold.rps()),
               cellNum(s.cold.percentileMs(99)),
               cellNum(s.warm.rps()),
               cellNum(s.warm.percentileMs(99), 3),
               cellNum(s.warmSpeedup()),
               cellText(std::to_string(warmSims))});

        const std::string j = std::to_string(s.jobs);
        art.scalar("serving_cold_rps_j" + j, s.cold.rps());
        art.scalar("serving_warm_rps_j" + j, s.warm.rps());
        art.scalar("serving_warm_speedup_j" + j, s.warmSpeedup());
        art.scalar("serving_warm_p50_ms_j" + j,
                   s.warm.percentileMs(50));
        art.scalar("serving_warm_sims_j" + j,
                   static_cast<double>(warmSims));
        art.scalar("serving_cold_errors_j" + j,
                   static_cast<double>(s.cold.errors));
        art.scalar("serving_warm_errors_j" + j,
                   static_cast<double>(s.warm.errors));
    }

    art.note("wall-clock rates over a Unix socket; not comparable "
             "across machines or against goldens. The warm phase "
             "replays the identical mix (same mix seed), so "
             "serving_warm_sims_* must be 0: every warm response "
             "comes from the Runner's memo tables.");
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT_STANDALONE(
    "BENCH_serving",
    "Contest service throughput (cold vs warm, by --jobs)",
    runServing);

} // namespace
} // namespace contest
