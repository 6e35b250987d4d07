#include "harness/runner.hh"

#include <algorithm>

#include "common/log.hh"
#include "harness/migration.hh"

namespace contest
{

namespace
{

/** Timeline label of a contested run: bench @ core+core+... */
std::string
contestLabel(const std::string &bench,
             const std::vector<CoreConfig> &cores)
{
    std::string label = bench + '@';
    for (std::size_t i = 0; i < cores.size(); ++i) {
        if (i > 0)
            label += '+';
        label += cores[i].name;
    }
    return label;
}

/** @name Disk-cache adapters of the two cached run kinds */
/** @{ */
bool
diskLoad(const ResultCache &disk, const std::string &key, LoggedRun &run)
{
    // A hit restores the result and region series without
    // generating the trace or simulating.
    std::vector<TimePs> series;
    if (!disk.load(key, run.result, series))
        return false;
    run.regions = std::make_shared<RegionLog>(std::move(series));
    return true;
}

bool
diskLoad(const ResultCache &disk, const std::string &key,
         ContestResult &result)
{
    return disk.loadContest(key, result);
}

void
diskStore(const ResultCache &disk, const std::string &key,
          const LoggedRun &run)
{
    disk.store(key, run.result, run.regions->series());
}

void
diskStore(const ResultCache &disk, const std::string &key,
          const ContestResult &result)
{
    disk.storeContest(key, result);
}
/** @} */

} // namespace

static_assert(RunSettings::minTraceLen == RegionLog::regionInsts);

Runner::Runner(const RunSettings &settings, ThreadPool *pool)
    : settings_(settings), pool_(pool)
{
    fatal_if(settings.traceLen < RegionLog::regionInsts,
             "Runner: trace length %llu too short",
             static_cast<unsigned long long>(settings.traceLen));
}

Runner::Runner(std::uint64_t trace_len, std::uint64_t seed)
    : Runner({trace_len, seed, RunSettings::fromEnvironment().fast,
              ThreadPool::global().jobs()},
             &ThreadPool::global())
{}

TracePtr
Runner::trace(const std::string &bench, std::uint64_t trace_len)
{
    const std::uint64_t use_len = useLen(trace_len);
    return traces.get(
        HashedKey(bench + '\x1f' + std::to_string(use_len)),
        [&] { return makeBenchmarkTrace(bench, settings_.seed, use_len); });
}

template <typename T, typename Label, typename Simulate>
const T &
Runner::cached(Memo<T> &memo, RunCounts &counts, SimTimeline::Kind kind,
               const std::string &key, Label &&label,
               Simulate &&simulate, bool *materialized)
{
    const auto queued = SimTimeline::now();
    // One canonical string keys the memo and the disk cache: two
    // calls agree on it iff they are the same deterministic
    // simulation.
    return memo.get(
        HashedKey(key),
        [&] {
            const auto start = SimTimeline::now();
            T value;
            const bool hit =
                disk != nullptr && diskLoad(*disk, key, value);
            if (hit) {
                ++counts.diskHits;
            } else {
                value = simulate();
                ++counts.simulated;
                if (disk != nullptr)
                    diskStore(*disk, key, value);
            }
            if (timeline_ != nullptr)
                timeline_->record(kind, label(), queued, start,
                                  SimTimeline::now(), hit);
            return value;
        },
        materialized);
}

const LoggedRun &
Runner::single(const std::string &bench, const std::string &core)
{
    return single(bench, coreConfigByName(core));
}

const LoggedRun &
Runner::single(const std::string &bench, const CoreConfig &core,
               std::uint64_t trace_len, bool *materialized)
{
    const std::uint64_t use_len = useLen(trace_len);
    return cached(
        singles, singleCounts, SimTimeline::Kind::Single,
        ResultCache::singleRunKey(core, bench, settings_.seed, use_len),
        [&] { return bench + '@' + core.name; },
        [&] {
            LoggedRun run;
            run.regions = std::make_shared<RegionLog>();
            run.result = runSingle(
                core, trace(bench, use_len),
                [log = run.regions.get()](InstSeq seq, TimePs now) {
                    log->onRetire(seq, now);
                });
            return run;
        },
        materialized);
}

const ContestResult &
Runner::contested(const std::string &bench,
                  const std::vector<CoreConfig> &cores,
                  const ContestConfig &config,
                  std::uint64_t trace_len, bool *materialized)
{
    const std::uint64_t use_len = useLen(trace_len);
    return cached(
        contests, contestCounts, SimTimeline::Kind::Contest,
        ResultCache::contestKey(bench, cores, config, settings_.seed, use_len),
        [&] { return contestLabel(bench, cores); },
        [&] {
            ContestSystem sys(cores, trace(bench, use_len), config);
            return sys.run();
        },
        materialized);
}

const LoggedRun *
Runner::singleIfReady(const std::string &bench, const CoreConfig &core,
                      std::uint64_t trace_len)
{
    return singles.ifReady(HashedKey(ResultCache::singleRunKey(
        core, bench, settings_.seed, useLen(trace_len))));
}

const ContestResult *
Runner::contestedIfReady(const std::string &bench,
                         const std::vector<CoreConfig> &cores,
                         const ContestConfig &config,
                         std::uint64_t trace_len)
{
    return contests.ifReady(HashedKey(ResultCache::contestKey(
        bench, cores, config, settings_.seed, useLen(trace_len))));
}

const ContestResult &
Runner::contestedPair(const std::string &bench,
                      const std::string &core_a,
                      const std::string &core_b,
                      const ContestConfig &config)
{
    return contested(
        bench, {coreConfigByName(core_a), coreConfigByName(core_b)},
        config);
}

const IptMatrix &
Runner::matrix()
{
    std::call_once(matrixOnce, [&] {
        auto m = std::make_unique<IptMatrix>();
        m->benchNames = profileNames();
        for (const auto &core : appendixAPalette())
            m->coreNames.push_back(core.name);

        // Warm every (bench, core) cell concurrently; each run is
        // self-contained, so the assembly below reads the same
        // values a serial sweep would have produced.
        const std::size_t nc = m->coreNames.size();
        pool_->parallelFor(
            m->benchNames.size() * nc, [&](std::size_t i) {
                single(m->benchNames[i / nc], m->coreNames[i % nc]);
            });

        for (const auto &bench : m->benchNames) {
            std::vector<double> row;
            for (const auto &core : m->coreNames)
                row.push_back(single(bench, core).result.ipt);
            m->ipt.push_back(std::move(row));
        }
        m->validate();
        cachedMatrix = std::move(m);
    });
    return *cachedMatrix;
}

Runner::PairChoice
Runner::bestContestingPair(const std::string &bench,
                           unsigned simulate_top)
{
    fatal_if(simulate_top == 0, "bestContestingPair: nothing to try");

    const auto &palette = appendixAPalette();

    // Warm the per-core single runs concurrently before ranking.
    pool_->parallelFor(palette.size(), [&](std::size_t i) {
        single(bench, palette[i].name);
    });

    // Rank all pairs by free oracle switching over their region logs
    // at a fine granularity (the Figure 1 estimate of fine-grain
    // switching benefit), then contest the most promising ones.
    struct Ranked
    {
        double fusedIpt;
        std::size_t a;
        std::size_t b;
    };
    std::vector<Ranked> ranked;
    for (std::size_t a = 0; a < palette.size(); ++a) {
        const auto &ra = single(bench, palette[a].name);
        for (std::size_t b = a + 1; b < palette.size(); ++b) {
            const auto &rb = single(bench, palette[b].name);
            TimePs fused =
                simulateMigration(ra.regions->series(),
                                  rb.regions->series(),
                                  {4, TimePs{}, MigrationPolicy::Oracle})
                    .totalPs;
            std::uint64_t insts =
                std::min(ra.regions->size(), rb.regions->size())
                * RegionLog::regionInsts;
            ranked.push_back(
                Ranked{instPerNs(InstSeq{insts}, fused), a, b});
        }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &x, const Ranked &y) {
                  return x.fusedIpt > y.fusedIpt;
              });

    // Contest the top candidates concurrently (each run is memoized
    // under its own once-latch), then pick the winner in ranked
    // order so ties resolve exactly as the serial scan did.
    std::size_t tried = std::min<std::size_t>(simulate_top,
                                              ranked.size());
    std::vector<const ContestResult *> results(tried);
    pool_->parallelFor(tried, [&](std::size_t i) {
        results[i] = &contestedPair(bench, palette[ranked[i].a].name,
                                    palette[ranked[i].b].name);
    });

    PairChoice best;
    double best_ipt = -1.0;
    for (std::size_t i = 0; i < tried; ++i) {
        if (results[i]->ipt > best_ipt) {
            best_ipt = results[i]->ipt;
            best.coreA = palette[ranked[i].a].name;
            best.coreB = palette[ranked[i].b].name;
            best.result = *results[i];
        }
    }
    panic_if(best_ipt < 0.0, "bestContestingPair tried no pairs");
    return best;
}

} // namespace contest
