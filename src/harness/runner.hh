/**
 * @file
 * Experiment runners shared by the bench binaries: cached
 * single-core runs (with optional region logging), cached contested
 * runs, the full benchmark-by-core IPT matrix, and
 * best-contesting-pair search.
 */

#ifndef CONTEST_HARNESS_RUNNER_HH
#define CONTEST_HARNESS_RUNNER_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/thread_pool.hh"
#include "contest/system.hh"
#include "core/palette.hh"
#include "explore/merit.hh"
#include "harness/region_log.hh"
#include "harness/result_cache.hh"
#include "harness/sim_timeline.hh"
#include "trace/generator.hh"

namespace contest
{

/** One single-core run's outcome plus its region log. */
struct LoggedRun
{
    SingleRunResult result;
    std::shared_ptr<RegionLog> regions;
};

/**
 * Caching experiment runner. All bench binaries funnel their
 * simulations through a Runner so that a single-core (benchmark,
 * core config) result and a contested (benchmark, ordered cores,
 * contest config) result are simulated exactly once per process,
 * and — with a ResultCache attached — not at all on a warm rerun.
 *
 * The runner is safe to use from many threads at once — the suite
 * scheduler's pool and, since the contest service daemon, an
 * arbitrary number of concurrent independent requests. Traces,
 * singles and contests each sit in one Memo: a lookup holds the
 * memo's mutex only for the probe/insert (never across a
 * simulation), and each entry carries a per-key once-latch so two
 * threads never simulate the same keyed run — the second requester
 * blocks until the first finishes. Because every simulation is
 * self-contained and writes only its own cache slot, results are
 * bit-identical for any job count, including 1.
 */
class Runner
{
  public:
    /**
     * @param settings what the runs depend on, stamped on artifacts
     * @param pool the pool of settings.jobs that sweeps fan out on
     *        (not owned; must outlive the runner)
     */
    Runner(const RunSettings &settings, ThreadPool *pool);

    /**
     * @p trace_len and @p seed, with fast from CONTEST_FAST, on
     * ThreadPool::global(). Its only caller is perfbench/probe.cc,
     * which sets the variables; all else passes RunSettings.
     */
    Runner(std::uint64_t trace_len, std::uint64_t seed);

    /** The (cached) trace of a benchmark. @p trace_len overrides the
     *  runner's configured length; 0 means the configured one. */
    TracePtr trace(const std::string &bench,
                   std::uint64_t trace_len = 0);

    /** Cached single-core run of a palette core type. */
    const LoggedRun &single(const std::string &bench,
                            const std::string &core);

    /**
     * Single-core run with region logging, memoized and backed by
     * the persistent result cache on ResultCache::singleRunKey —
     * every CoreConfig field, so a variant of a palette core (a
     * modeled I-cache, say) needs a name of its own only for its
     * timeline label. @p trace_len overrides the configured length
     * (0: the configured one) and is part of the key.
     *
     * @param materialized if set, receives whether this call ran
     *        the once-latch body (a disk load or a simulation)
     *        rather than reading a result already in memory
     */
    const LoggedRun &single(const std::string &bench,
                            const CoreConfig &core,
                            std::uint64_t trace_len = 0,
                            bool *materialized = nullptr);

    /**
     * Contested run, memoized on (benchmark, ordered core configs,
     * contest config) and backed by the persistent result cache when
     * one is attached. Experiments that contest overlapping
     * (benchmark, pair, config) combinations — fig06 vs the Figure
     * 10-13 designs, for instance — simulate each contest once per
     * process, and a warm rerun not at all.
     *
     * @p trace_len overrides the runner's configured trace length
     * (0: use the configured one); the override is part of the cache
     * key, so experiments that deliberately contest shorter traces
     * (contest-aware exploration) still memoize and persist.
     * @p materialized is reported as by single().
     */
    const ContestResult &contested(const std::string &bench,
                                   const std::vector<CoreConfig> &cores,
                                   const ContestConfig &config,
                                   std::uint64_t trace_len = 0,
                                   bool *materialized = nullptr);

    /**
     * The memoized result of single(@p bench, @p core, @p trace_len)
     * if it is already in memory, else nullptr. Never simulates,
     * never reads the disk cache, never waits on a latch, and never
     * adds a memo entry, so a probe for an unseen key costs a key
     * build and one map lookup.
     */
    const LoggedRun *singleIfReady(const std::string &bench,
                                   const CoreConfig &core,
                                   std::uint64_t trace_len = 0);

    /** contested()'s memoized result if already in memory, else
     *  nullptr; the same guarantees as singleIfReady(). */
    const ContestResult *
    contestedIfReady(const std::string &bench,
                     const std::vector<CoreConfig> &cores,
                     const ContestConfig &config,
                     std::uint64_t trace_len = 0);

    /** Contested run between two palette core types. */
    const ContestResult &contestedPair(const std::string &bench,
                                       const std::string &core_a,
                                       const std::string &core_b,
                                       const ContestConfig &config = {});

    /** The full benchmark x core-type IPT matrix (cached). */
    const IptMatrix &matrix();

    /**
     * Map @p fn over [0, n) on the runner's pool and return the
     * results in index order. Each call writes only its own slot, so
     * the output is bit-identical to a serial loop at any job count;
     * with a one-job pool every index runs on the calling thread, in
     * order. Experiments fan out through this, so a daemon's
     * experiment request stays inside the daemon's `--jobs`.
     */
    template <typename Fn>
    auto
    runParallel(std::size_t n, Fn fn)
        -> std::vector<decltype(fn(std::size_t{0}))>
    {
        std::vector<decltype(fn(std::size_t{0}))> out(n);
        pool_->parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * The best pair of core types to contest for a benchmark.
     * Candidate pairs are pre-ranked by the Figure 1 oracle fusion
     * of their region logs at fine granularity, then the top
     * @p simulate_top pairs are actually contested and the best
     * contested result wins (this prunes the 55-pair space the way
     * the paper's own exhaustive search would rank it).
     */
    struct PairChoice
    {
        std::string coreA;
        std::string coreB;
        ContestResult result;
    };
    PairChoice bestContestingPair(const std::string &bench,
                                  const ContestConfig &config = {},
                                  unsigned simulate_top = 5);

    /** What the runs depend on. */
    const RunSettings &settings() const { return settings_; }

    /**
     * Attach a persistent result cache (not owned; must outlive the
     * runner). single() and contested() consult it inside the
     * once-latch: a disk hit skips the simulation entirely, a miss
     * simulates and then stores. Attach before the first run —
     * entries already latched in memory are not revisited.
     */
    void setResultCache(ResultCache *cache) { disk = cache; }

    /** The attached result cache, if any. */
    ResultCache *resultCache() const { return disk; }

    /**
     * Attach a per-simulation timeline (not owned; must outlive the
     * runner). Every single and contested run records its
     * queue/start/end span, cache hits included.
     */
    void setTimeline(SimTimeline *t) { timeline_ = t; }

    /** Single-core simulations actually executed by this runner
     *  (in-memory and disk hits excluded). */
    std::uint64_t
    simulationsPerformed() const
    {
        return singleCounts.simulated.load();
    }

    /** single() calls satisfied from the persistent cache. */
    std::uint64_t diskHits() const { return singleCounts.diskHits.load(); }

    /** Contested simulations actually executed by this runner
     *  (in-memory and disk hits excluded). */
    std::uint64_t
    contestsPerformed() const
    {
        return contestCounts.simulated.load();
    }

    /** contested() calls satisfied from the persistent cache. */
    std::uint64_t
    contestDiskHits() const
    {
        return contestCounts.diskHits.load();
    }

  private:
    /**
     * A memo table: one once-latched entry per key, under one
     * mutex held only for the probe/insert. Entries are
     * heap-allocated and never erased, so a reference into one stays
     * valid for the runner's lifetime while other threads grow the
     * map. The key's digest is computed (HashedKey) before the lock
     * is taken.
     */
    template <typename T>
    class Memo
    {
      public:
        /**
         * The value for @p key, computed by @p fill exactly once per
         * process; concurrent callers for the same key block until
         * it lands. @p ran, if set, receives whether this call ran
         * @p fill.
         */
        template <typename Fill>
        const T &
        get(HashedKey key, Fill &&fill, bool *ran = nullptr)
        {
            Entry *entry = nullptr;
            {
                std::lock_guard<std::mutex> lock(mu);
                auto &slot = map[std::move(key)];
                if (!slot)
                    slot = std::make_unique<Entry>();
                entry = slot.get();
            }
            bool filled = false;
            std::call_once(entry->once, [&] {
                filled = true;
                entry->value = fill();
                // Last step of the latch body: a reader that loads
                // it true (acquire) sees the finished value without
                // touching the latch.
                entry->ready.store(true, std::memory_order_release);
            });
            if (ran != nullptr)
                *ran = filled;
            return entry->value;
        }

        /** The value for @p key if it is already computed, else
         *  nullptr. Never inserts and never waits on a latch. */
        const T *
        ifReady(const HashedKey &key)
        {
            const Entry *entry = nullptr;
            {
                std::lock_guard<std::mutex> lock(mu);
                auto it = map.find(key);
                if (it == map.end())
                    return nullptr;
                entry = it->second.get();
            }
            return entry->ready.load(std::memory_order_acquire)
                       ? &entry->value
                       : nullptr;
        }

      private:
        struct Entry
        {
            std::once_flag once;
            T value;
            std::atomic<bool> ready{false};
        };
        std::mutex mu;
        std::unordered_map<HashedKey, std::unique_ptr<Entry>,
                           HashedKeyHash> map;
    };

    /** How one kind of cached run was materialized. */
    struct RunCounts
    {
        std::atomic<std::uint64_t> simulated{0};
        std::atomic<std::uint64_t> diskHits{0};
    };

    /**
     * The one path of a cached single or contested run: memo, then
     * (inside the latch) the disk cache, else @p simulate and a
     * store; then the counts and the timeline span labelled
     * @p label(). Only runner.cc instantiates it.
     */
    template <typename T, typename Label, typename Simulate>
    const T &cached(Memo<T> &memo, RunCounts &counts,
                    SimTimeline::Kind kind, const std::string &key,
                    Label &&label, Simulate &&simulate,
                    bool *materialized);

    /** @p trace_len, or the configured length when it is 0. */
    std::uint64_t
    useLen(std::uint64_t trace_len) const
    {
        return trace_len != 0 ? trace_len : settings_.traceLen;
    }

    RunSettings settings_;
    ThreadPool *pool_;
    ResultCache *disk = nullptr;
    SimTimeline *timeline_ = nullptr;
    RunCounts singleCounts;
    RunCounts contestCounts;

    Memo<TracePtr> traces;
    Memo<LoggedRun> singles;
    Memo<ContestResult> contests;
    std::once_flag matrixOnce;
    std::unique_ptr<IptMatrix> cachedMatrix;
};

} // namespace contest

#endif // CONTEST_HARNESS_RUNNER_HH
