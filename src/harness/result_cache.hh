/**
 * @file
 * Opt-in persistent layer under the Runner's in-memory memoization:
 * completed single-core runs (result + region-log series) and
 * contested runs (the full ContestResult) are stored on disk, keyed
 * by a digest of everything that determines the run — the full core
 * configuration(s), the contesting configuration, the benchmark
 * name, the trace seed and length, and a cache format version. A
 * later process with the same knobs loads the run instead of
 * re-simulating it.
 *
 * Entries are self-verifying: each file records the format version
 * and the full canonical key string, so a digest collision or a
 * version bump degrades to a miss, never to wrong data. Writes go
 * through a temporary file renamed into place, so concurrent
 * processes sharing a cache directory see only complete entries.
 */

#ifndef CONTEST_HARNESS_RESULT_CACHE_HH
#define CONTEST_HARNESS_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "contest/system.hh"
#include "core/config.hh"

namespace contest
{

/** On-disk cache of completed single-core runs. */
class ResultCache
{
  public:
    /** Bumped whenever the entry format or simulation semantics
     *  change; old entries then miss instead of deserializing. */
    static constexpr int currentVersion = 2;

    /**
     * @param cache_dir directory for entries (created on first
     *        store)
     * @param version format version stamped on / required of
     *        entries; tests pass a different value to exercise
     *        invalidation
     */
    explicit ResultCache(std::string cache_dir,
                         int version = currentVersion);

    /**
     * Canonical key of a single-core run: every CoreConfig field
     * that shapes the simulation plus the workload identity. Two
     * runs agree on this string iff they are the same deterministic
     * simulation.
     */
    static std::string singleRunKey(const CoreConfig &core,
                                    const std::string &bench,
                                    std::uint64_t seed,
                                    std::uint64_t trace_len);

    /**
     * Canonical key of a contested run: the benchmark/seed/length
     * workload identity, every ContestConfig knob, and the ordered
     * list of contesting core configurations (order matters — core 0
     * is the tie-break winner).
     */
    static std::string contestKey(const std::string &bench,
                                  const std::vector<CoreConfig> &cores,
                                  const ContestConfig &config,
                                  std::uint64_t seed,
                                  std::uint64_t trace_len);

    /**
     * Look up a run. On a hit fills @p result and @p regions and
     * returns true; any mismatch (absent, truncated, version or key
     * mismatch) is a miss.
     */
    bool load(const std::string &key, SingleRunResult &result,
              std::vector<TimePs> &regions) const;

    /** Persist a run under @p key (atomic create-then-rename). */
    void store(const std::string &key, const SingleRunResult &result,
               const std::vector<TimePs> &regions) const;

    /**
     * Look up a contested run. Same degradation policy as load():
     * anything but a verified, complete entry is a miss. Contest
     * entries carry their own magic, so a single-run entry (or any
     * corruption) can never deserialize as a ContestResult.
     */
    bool loadContest(const std::string &key,
                     ContestResult &result) const;

    /** Persist a contested run under @p key. */
    void storeContest(const std::string &key,
                      const ContestResult &result) const;

    /** @name Instrumentation */
    /** @{ */
    std::uint64_t hits() const { return hitCount.load(); }
    std::uint64_t misses() const { return missCount.load(); }
    std::uint64_t stores() const { return storeCount.load(); }
    /** @} */

    /** The cache directory. */
    const std::string &directory() const { return dir; }

    /** Entry path for a key (digest-named; exposed for tests). */
    std::string entryPath(const std::string &key) const;

  private:
    /**
     * The one reader of an entry: read the file for @p key, verify
     * @p magic, the format version and the key echo, let @p parse
     * read the payload, and require that it ends exactly at the end
     * of the file. Counts the hit or miss.
     */
    template <typename Parse>
    bool readEntry(const std::string &key, const char (&magic)[4],
                   Parse &&parse) const;

    /** The one writer: the header for @p key, then @p fill's
     *  payload, published atomically and counted as a store. */
    template <typename Fill>
    void writeEntry(const std::string &key, const char (&magic)[4],
                    Fill &&fill) const;

    std::string dir;
    int formatVersion;
    mutable std::atomic<std::uint64_t> hitCount{0};
    mutable std::atomic<std::uint64_t> missCount{0};
    mutable std::atomic<std::uint64_t> storeCount{0};
};

} // namespace contest

#endif // CONTEST_HARNESS_RESULT_CACHE_HH
