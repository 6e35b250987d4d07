/**
 * @file
 * Experiment runners shared by the bench binaries: cached
 * single-core runs (with optional region logging), cached contested
 * runs, the full benchmark-by-core IPT matrix, and
 * best-contesting-pair search.
 */

#ifndef CONTEST_HARNESS_RUNNER_HH
#define CONTEST_HARNESS_RUNNER_HH

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
 * arbitrary number of concurrent independent requests. Each memo map
 * is sharded by key digest: a lookup locks only its shard's mutex,
 * held only for the lookup/insert (never across a simulation), and
 * each entry carries a per-key once-latch so two threads never
 * simulate the same keyed run — the second requester blocks until
 * the first finishes. Because every simulation is self-contained and
 * writes only its own cache slot, results are bit-identical for any
 * job count, including 1.
 *
 * The maps are unordered, keyed by canonical key strings whose
 * 64-bit digest is computed once per lookup (HashedKey); buckets are
 * reserved up front so the suite's steady state never rehashes.
 */
class Runner
{
  public:
    /**
     * @param trace_len instructions per benchmark trace
     * @param seed workload generation seed
     * @param pool thread pool for parallel sweeps (default: the
     *        process-wide CONTEST_JOBS-sized pool)
     */
    Runner(std::uint64_t trace_len, std::uint64_t seed,
           ThreadPool *pool = nullptr);

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
     * build and one shard lookup.
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

    /** Trace length in use. */
    std::uint64_t traceLen() const { return len; }

    /** Workload seed in use. */
    std::uint64_t workloadSeed() const { return seed_; }

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

    /** The attached timeline, if any. */
    SimTimeline *timeline() const { return timeline_; }

    /** Single-core simulations actually executed by this runner
     *  (in-memory and disk hits excluded). */
    std::uint64_t
    simulationsPerformed() const
    {
        return simsDone.load();
    }

    /** single() calls satisfied from the persistent cache. */
    std::uint64_t diskHits() const { return diskHitCount.load(); }

    /** Contested simulations actually executed by this runner
     *  (in-memory and disk hits excluded). */
    std::uint64_t
    contestsPerformed() const
    {
        return contestsDone.load();
    }

    /** contested() calls satisfied from the persistent cache. */
    std::uint64_t
    contestDiskHits() const
    {
        return contestDiskHitCount.load();
    }

  private:
    /** Memo-map slot: the once-latch serializes the first (and only)
     *  computation of the keyed value; later readers see it filled.
     *  A result slot's `ready` is stored (release) as the last step
     *  of the latch body, so a reader that loads it true (acquire)
     *  sees the finished result without touching the latch. Results
     *  are never written again. */
    struct TraceEntry
    {
        std::once_flag once;
        TracePtr value;
    };
    struct SingleEntry
    {
        std::once_flag once;
        LoggedRun run;
        std::atomic<bool> ready{false};
    };
    struct ContestEntry
    {
        std::once_flag once;
        ContestResult result;
        std::atomic<bool> ready{false};
    };

    /**
     * A memo map split into shards, each with its own structure
     * mutex, so concurrent requests for different keys contend only
     * when their digests collide modulo the shard count. Entries are
     * heap-allocated and never erased, so a pointer returned by
     * entryFor() stays valid for the runner's lifetime even while
     * other threads grow the shard.
     */
    template <typename Entry>
    class MemoShards
    {
      public:
        /** Find-or-create the entry for @p key, holding only the
         *  owning shard's mutex for the lookup/insert. */
        Entry *
        entryFor(HashedKey key)
        {
            Shard &s = shards[key.hash & (kShards - 1)];
            std::lock_guard<std::mutex> lock(s.mu);
            auto &slot = s.map[std::move(key)];
            if (!slot)
                slot = std::make_unique<Entry>();
            return slot.get();
        }

        /** The entry for @p key, or nullptr; never inserts. */
        Entry *
        find(const HashedKey &key)
        {
            Shard &s = shards[key.hash & (kShards - 1)];
            std::lock_guard<std::mutex> lock(s.mu);
            auto it = s.map.find(key);
            return it != s.map.end() ? it->second.get() : nullptr;
        }

        /** Reserve buckets for @p total entries across all shards. */
        void
        reserve(std::size_t total)
        {
            for (Shard &s : shards)
                s.map.reserve(total / kShards + 1);
        }

      private:
        static constexpr std::size_t kShards = 16;
        static_assert((kShards & (kShards - 1)) == 0,
                      "shard selection masks the key digest");

        struct Shard
        {
            std::mutex mu;
            std::unordered_map<HashedKey, std::unique_ptr<Entry>,
                               HashedKeyHash> map;
        };
        std::array<Shard, kShards> shards;
    };

    std::uint64_t len;
    std::uint64_t seed_;
    ThreadPool *pool_;
    ResultCache *disk = nullptr;
    SimTimeline *timeline_ = nullptr;
    std::atomic<std::uint64_t> simsDone{0};
    std::atomic<std::uint64_t> diskHitCount{0};
    std::atomic<std::uint64_t> contestsDone{0};
    std::atomic<std::uint64_t> contestDiskHitCount{0};

    /** Sharded memo maps; entries latch themselves. */
    MemoShards<TraceEntry> traces;
    MemoShards<SingleEntry> singles;
    MemoShards<ContestEntry> contests;
    std::once_flag matrixOnce;
    std::unique_ptr<IptMatrix> cachedMatrix;
};

} // namespace contest

#endif // CONTEST_HARNESS_RUNNER_HH
