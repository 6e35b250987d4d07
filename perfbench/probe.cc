/**
 * @file
 * Layer probe for the repository benchmark (perfbench/run.py). It
 * measures from outside: every number is a timed call into a layer's
 * public functions, and the program under test is not modified.
 *
 *   perfbench_probe names
 *       Prints the trace profile and palette core names.
 *
 *   perfbench_probe ladder --seed S --trace-len L --dir D
 *       Times trace generation, runSingle and Runner::single on the
 *       same cells, a memo-hit contested() call, the ResultCache key
 *       builders and its contest load/store. Prints one JSON object.
 *
 *   perfbench_probe suite --seed S --trace-len L --jobs J
 *                         --cache-dir C --out-dir A
 *       Runs the in-suite experiments exactly as `contest_bench --all
 *       --fast` does (one Runner, the SuiteScheduler, the result
 *       cache), with one span around each experiment body. Writes the
 *       artifacts and SimTimeline.json to A and prints one JSON object.
 *
 *   perfbench_probe load --socket P --keys K --seq Q [--seconds T]
 *                        [--pings N] [--expect E] [--answers-out F]
 *                        --records R
 *       Closed-loop load on a running contest_serve: each of two client
 *       connections sends the next request of the shared sequence Q
 *       (indices into the request lines of K) once its previous reply
 *       arrived. With T > 0 the sequence repeats until T seconds
 *       passed; otherwise it runs once. Checks that
 *       every answer for a key repeats the first one (or the answer in
 *       E). Writes one line per request to R and prints one JSON
 *       object.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "contest/system.hh"
#include "core/ooo_core.hh"
#include "core/palette.hh"
#include "harness/registry.hh"
#include "harness/result_cache.hh"
#include "harness/runner.hh"
#include "harness/scheduler.hh"
#include "harness/sim_timeline.hh"
#include "serve/client.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace
{

using namespace contest;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

JsonValue
num(double v)
{
    return JsonValue::number(v);
}

/** `--name value` options; anything else is a usage error. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
                std::fprintf(stderr, "perfbench_probe: bad argument "
                                     "'%s'\n", argv[i]);
                std::exit(2);
            }
            values[argv[i] + 2] = argv[i + 1];
            ++i;
        }
    }

    std::string
    str(const std::string &name, const char *def = nullptr) const
    {
        auto it = values.find(name);
        if (it != values.end())
            return it->second;
        if (def == nullptr) {
            std::fprintf(stderr, "perfbench_probe: --%s is required\n",
                         name.c_str());
            std::exit(2);
        }
        return def;
    }

    std::uint64_t
    u64(const std::string &name, const char *def = nullptr) const
    {
        return std::strtoull(str(name, def).c_str(), nullptr, 10);
    }

  private:
    std::map<std::string, std::string> values;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over @p batches of the mean microseconds per call of
 *  @p fn, called @p per_batch times a batch. */
template <typename Fn>
double
microsPerCall(unsigned batches, unsigned per_batch, Fn fn)
{
    std::vector<double> means;
    for (unsigned b = 0; b < batches; ++b) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < per_batch; ++i)
            fn(b * per_batch + i);
        means.push_back(secondsSince(t0) * 1e6 / per_batch);
    }
    return median(means);
}

// ----------------------------------------------------------------- names

int
names()
{
    JsonValue benches = JsonValue::array();
    for (const std::string &b : profileNames())
        benches.push(JsonValue::str(b));
    JsonValue cores = JsonValue::array();
    for (const CoreConfig &c : appendixAPalette())
        cores.push(JsonValue::str(c.name));
    JsonValue out = JsonValue::object();
    out.set("benches", std::move(benches));
    out.set("cores", std::move(cores));
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}

// ---------------------------------------------------------------- ladder

int
ladder(const Args &args)
{
    const std::uint64_t seed = args.u64("seed");
    const std::uint64_t len = args.u64("trace-len");
    const std::string dir = args.str("dir");
    const std::vector<std::string> benches = profileNames();
    const std::vector<CoreConfig> &palette = appendixAPalette();
    const double insts = static_cast<double>(len);
    JsonValue out = JsonValue::object();

    // trace: generation of all profiles, median of three passes.
    std::vector<double> gen;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        for (const std::string &b : benches)
            makeBenchmarkTrace(b, seed, len);
        gen.push_back(secondsSince(t0) * 1e9
                      / (insts * static_cast<double>(benches.size())));
    }
    out.set("trace_gen_ns_per_inst", num(median(gen)));

    // core: runSingle (skips idle cycles) against Runner::single
    // (ticks every cycle) on every (benchmark, core) cell, alternating
    // per cell so both see the same machine state.
    Runner runner(len, seed);
    for (const std::string &b : benches)
        runner.trace(b);
    double runSingleSec = 0.0;
    double runnerSingleSec = 0.0;
    for (const std::string &b : benches) {
        const TracePtr trace = runner.trace(b);
        for (const CoreConfig &core : palette) {
            auto t0 = Clock::now();
            runSingle(core, trace);
            runSingleSec += secondsSince(t0);
            t0 = Clock::now();
            runner.single(b, core.name);
            runnerSingleSec += secondsSince(t0);
        }
    }
    const double cells = static_cast<double>(benches.size()
                                             * palette.size());
    out.set("runsingle_ns_per_inst",
            num(runSingleSec * 1e9 / (cells * insts)));
    out.set("runner_single_ns_per_inst",
            num(runnerSingleSec * 1e9 / (cells * insts)));

    // core: share of cycles the idle skip elides, each benchmark on
    // its own core (the loop of runSingle, reading the core's count).
    double skipped = 0.0;
    double cycles = 0.0;
    for (const std::string &b : benches) {
        OooCore core(coreConfigByName(b), runner.trace(b));
        const std::uint64_t step = core.periodPs().count();
        TimePs t{};
        while (!core.done()) {
            core.tick(t);
            std::uint64_t ticks = 1;
            if (!core.done())
                ticks += core.skipIdleCycles(Cycles::max()).count();
            t += TimePs{step * ticks};
        }
        skipped += static_cast<double>(core.idleSkipped().count());
        cycles += static_cast<double>(t.count() / step);
    }
    out.set("idle_skip_frac", num(cycles > 0.0 ? skipped / cycles : 0.0));

    // harness: key builders, a memo hit, and the disk layer. The keys
    // cycle over 2-way contests of the benchmark's own core against
    // every other palette core.
    struct Cell
    {
        std::string bench;
        std::vector<CoreConfig> cores;
    };
    std::vector<Cell> cellsList;
    for (const std::string &b : benches)
        for (const CoreConfig &other : palette)
            if (other.name != b)
                cellsList.push_back(
                    Cell{b, {coreConfigByName(b), other}});
    const ContestConfig config{};
    out.set("contest_key_us",
            num(microsPerCall(9, 400, [&](unsigned i) {
                const Cell &c = cellsList[i % cellsList.size()];
                ResultCache::contestKey(c.bench, c.cores, config, seed, len);
            })));
    out.set("single_key_us",
            num(microsPerCall(9, 400, [&](unsigned i) {
                const Cell &c = cellsList[i % cellsList.size()];
                ResultCache::singleRunKey(c.cores[1], c.bench, seed, len);
            })));

    std::vector<const ContestResult *> memo;
    for (std::size_t i = 0; i < 4; ++i)
        memo.push_back(&runner.contested(cellsList[i].bench,
                                         cellsList[i].cores, config));
    out.set("memo_hit_us", num(microsPerCall(9, 400, [&](unsigned i) {
                const Cell &c = cellsList[i % 4];
                runner.contested(c.bench, c.cores, config);
            })));

    ResultCache disk(dir);
    std::vector<std::string> keys;
    for (const Cell &c : cellsList)
        keys.push_back(
            ResultCache::contestKey(c.bench, c.cores, config, seed, len));
    const unsigned perBatch = 20;
    const unsigned batches =
        static_cast<unsigned>(keys.size() / perBatch);
    out.set("disk_store_us",
            num(microsPerCall(batches, perBatch, [&](unsigned i) {
                disk.storeContest(keys[i], *memo[i % memo.size()]);
            })));
    bool loadsOk = true;
    out.set("disk_load_us",
            num(microsPerCall(batches, perBatch, [&](unsigned i) {
                ContestResult r;
                loadsOk = disk.loadContest(keys[i], r) && loadsOk
                          && r.timePs == memo[i % memo.size()]->timePs;
            })));
    out.set("disk_loads_ok", JsonValue::boolean(loadsOk));
    std::printf("%s\n", out.dump(0).c_str());
    return loadsOk ? 0 : 1;
}

// ----------------------------------------------------------------- suite

int
suite(const Args &args)
{
    const std::string jobs = args.str("jobs");
    // The experiments read these through common/env.hh, exactly as
    // contest_bench's --fast/--jobs/--trace-len/--seed flags set them.
    setenv("CONTEST_FAST", "1", 1);
    setenv("CONTEST_JOBS", jobs.c_str(), 1);
    setenv("CONTEST_TRACE_LEN", args.str("trace-len").c_str(), 1);
    setenv("CONTEST_SEED", args.str("seed").c_str(), 1);

    const auto start = Clock::now();
    Runner runner(args.u64("trace-len"), args.u64("seed"));
    ResultCache cache(args.str("cache-dir"));
    runner.setResultCache(&cache);
    SimTimeline timeline;
    runner.setTimeline(&timeline);
    const std::string outDir = args.str("out-dir");
    ArtifactSink sink(outDir, false);
    ThreadPool &pool = ThreadPool::global();

    std::vector<const ExperimentInfo *> toRun;
    for (const ExperimentInfo *e : ExperimentRegistry::instance().all())
        if (e->inSuite)
            toRun.push_back(e);
    JsonValue expSec = JsonValue::object();
    SuiteScheduler(runner, sink, pool)
        .run(toRun, [&](const ExperimentInfo &e, double sec) {
            expSec.set(e.name, num(sec));
        });
    const double wall = secondsSince(start);

    std::ofstream f(outDir + "/SimTimeline.json", std::ios::trunc);
    f << timeline.toJson(pool.jobs()).dump(2);
    f.close();

    JsonValue out = JsonValue::object();
    out.set("wall_s", num(wall));
    out.set("exp_s", std::move(expSec));
    out.set("singles", num(static_cast<double>(
                           runner.simulationsPerformed())));
    out.set("contests",
            num(static_cast<double>(runner.contestsPerformed())));
    out.set("disk_hits", num(static_cast<double>(cache.hits())));
    out.set("disk_misses", num(static_cast<double>(cache.misses())));
    out.set("disk_stores", num(static_cast<double>(cache.stores())));
    std::printf("%s\n", out.dump(0).c_str());
    return f.good() ? 0 : 1;
}

// ------------------------------------------------------------------ load

std::vector<std::string>
readLines(const std::string &path, bool keep_empty = false)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (keep_empty || !line.empty())
            lines.push_back(line);
    return lines;
}

/** A response's result fields: everything but the echo and timing. */
std::string
resultFields(const JsonValue &resp)
{
    JsonValue fields = JsonValue::object();
    for (const auto &[key, value] : resp.members())
        if (key != "id" && key != "timing")
            fields.set(key, value);
    return fields.dump(0);
}

double
numberAt(const JsonValue *obj, const char *key)
{
    const JsonValue *v =
        obj != nullptr && obj->isObject() ? obj->find(key) : nullptr;
    return v != nullptr && v->isNumber() ? v->asNumber() : -1.0;
}

/** server.sims and server.timeline counters from a `stats` call. */
bool
serverCounters(ServeClient &client, JsonValue &out)
{
    JsonValue req = JsonValue::object();
    req.set("kind", JsonValue::str("stats"));
    JsonValue resp;
    std::string error;
    if (!client.call(req, resp, &error) || !resp.isObject())
        return false;
    const JsonValue *server = resp.find("server");
    if (server == nullptr || !server->isObject())
        return false;
    const JsonValue *sims = server->find("sims");
    const JsonValue *tl = server->find("timeline");
    out = JsonValue::object();
    out.set("singles", num(numberAt(sims, "singles_executed")));
    out.set("contests", num(numberAt(sims, "contests_executed")));
    out.set("busy_sec", num(numberAt(tl, "busy_sec")));
    out.set("timeline_sims", num(numberAt(tl, "sims")));
    return true;
}

/** Client connections of `load`: with the daemon's two workers, the
 *  load stays within the four threads of a 4-CPU host. */
constexpr unsigned kClients = 2;

struct Record
{
    std::uint32_t key = 0;
    double rttMs = 0.0;
    double queueMs = -1.0;
    double runMs = -1.0;
    bool warm = false;
    bool ok = false;
};

int
load(const Args &args)
{
    ServeTarget target;
    target.unixPath = args.str("socket");
    const std::vector<std::string> lines = readLines(args.str("keys"));
    std::vector<JsonValue> requests;
    for (const std::string &line : lines)
        requests.push_back(JsonValue::parse(line));
    std::vector<std::uint32_t> seq;
    for (const std::string &line : readLines(args.str("seq")))
        seq.push_back(
            static_cast<std::uint32_t>(std::strtoul(line.c_str(),
                                                    nullptr, 10)));
    for (std::uint32_t k : seq)
        if (k >= requests.size()) {
            std::fprintf(stderr, "perfbench_probe: key %u out of range\n",
                         k);
            return 2;
        }
    const double seconds =
        std::strtod(args.str("seconds", "0").c_str(), nullptr);
    const unsigned pings = static_cast<unsigned>(args.u64("pings", "0"));

    // First answer per key; seeded from --expect when given.
    std::vector<std::string> answers(requests.size());
    std::vector<std::once_flag> answered(requests.size());
    const std::string expectPath = args.str("expect", "");
    if (!expectPath.empty()) {
        // Line i is key i's answer, empty when it was never answered.
        const std::vector<std::string> expect = readLines(expectPath, true);
        for (std::size_t i = 0; i < expect.size() && i < answers.size();
             ++i) {
            if (expect[i].empty())
                continue;
            answers[i] = expect[i];
            std::call_once(answered[i], [] {});
        }
    }

    ServeClient control;
    std::string error;
    if (!control.connect(target, &error)) {
        std::fprintf(stderr, "perfbench_probe: %s\n", error.c_str());
        return 1;
    }
    JsonValue out = JsonValue::object();
    JsonValue pingUs = JsonValue::array();
    JsonValue ping = JsonValue::object();
    ping.set("kind", JsonValue::str("ping"));
    for (unsigned i = 0; i < pings; ++i) {
        JsonValue resp;
        const auto t0 = Clock::now();
        if (!control.call(ping, resp, &error)) {
            std::fprintf(stderr, "perfbench_probe: ping: %s\n",
                         error.c_str());
            return 1;
        }
        pingUs.push(num(secondsSince(t0) * 1e6));
    }
    out.set("ping_us", std::move(pingUs));
    JsonValue before;
    if (!serverCounters(control, before)) {
        std::fprintf(stderr, "perfbench_probe: stats failed\n");
        return 1;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::vector<Record>> perClient(kClients);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    auto client = [&](unsigned c) {
        ServeClient conn;
        std::string err;
        const bool up = conn.connect(target, &err);
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (seconds > 0 ? Clock::now() >= deadline : i >= seq.size())
                break;
            Record r;
            r.key = seq[i % seq.size()];
            JsonValue resp;
            const auto t0 = Clock::now();
            const bool called =
                up && conn.call(requests[r.key], resp, &err);
            r.rttMs = secondsSince(t0) * 1e3;
            const JsonValue *ok =
                called && resp.isObject() ? resp.find("ok") : nullptr;
            r.ok = ok != nullptr && ok->isBool() && ok->asBool();
            if (r.ok) {
                const JsonValue *timing = resp.find("timing");
                r.queueMs = numberAt(timing, "queue_ms");
                r.runMs = numberAt(timing, "run_ms");
                const JsonValue *warm =
                    timing != nullptr && timing->isObject()
                        ? timing->find("warm")
                        : nullptr;
                r.warm = warm != nullptr && warm->isBool()
                         && warm->asBool();
                const std::string fields = resultFields(resp);
                bool first = false;
                std::call_once(answered[r.key], [&] {
                    answers[r.key] = fields;
                    first = true;
                });
                if (!first && answers[r.key] != fields)
                    mismatches.fetch_add(1);
            }
            perClient[c].push_back(r);
        }
    };
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back(client, c);
        for (std::thread &t : threads)
            t.join();
    }
    const double wall = secondsSince(start);

    JsonValue after;
    if (!serverCounters(control, after)) {
        std::fprintf(stderr, "perfbench_probe: stats failed\n");
        return 1;
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::ofstream rec(args.str("records"), std::ios::trunc);
    for (const std::vector<Record> &rs : perClient)
        for (const Record &r : rs) {
            ++attempted;
            failed += r.ok ? 0 : 1;
            rec << r.key << ' ' << r.rttMs << ' ' << r.queueMs << ' '
                << r.runMs << ' ' << (r.warm ? 1 : 0) << ' '
                << (r.ok ? 1 : 0) << '\n';
        }
    rec.close();
    const std::string answersOut = args.str("answers-out", "");
    if (!answersOut.empty()) {
        std::ofstream a(answersOut, std::ios::trunc);
        for (const std::string &s : answers)
            a << s << '\n';
    }

    out.set("wall_s", num(wall));
    out.set("attempted", num(static_cast<double>(attempted)));
    out.set("failed", num(static_cast<double>(failed)));
    out.set("mismatches",
            num(static_cast<double>(mismatches.load())));
    out.set("before", std::move(before));
    out.set("after", std::move(after));
    std::printf("%s\n", out.dump(0).c_str());
    return rec.good() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfbench_probe names|ladder|suite|load "
                     "...\n");
        return 2;
    }
    const std::string mode = argv[1];
    const Args args(argc, argv, 2);
    if (mode == "names")
        return names();
    if (mode == "ladder")
        return ladder(args);
    if (mode == "suite")
        return suite(args);
    if (mode == "load")
        return load(args);
    std::fprintf(stderr, "perfbench_probe: unknown mode '%s'\n",
                 mode.c_str());
    return 2;
}
