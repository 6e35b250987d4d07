/**
 * @file
 * Set-associative cache tag model with true-LRU replacement.
 *
 * The simulator models hit/miss behaviour and latency; data values
 * are abstract (the traces carry no values). Bandwidth is modeled
 * only through the port counts in the core model, not here.
 */

#ifndef CONTEST_MEM_CACHE_HH
#define CONTEST_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace contest
{

/** Geometry and policy of one cache level. */
struct CacheConfig
{
    unsigned sets = 1024;       //!< number of sets (power of two)
    unsigned assoc = 2;         //!< ways per set
    unsigned blockBytes = 64;   //!< line size (power of two)
    Cycles latency{2};         //!< access latency in core cycles
    bool writeThrough = false;  //!< write-through (no dirty lines)

    /** Total capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return std::uint64_t{sets} * assoc * blockBytes;
    }
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty line was evicted to make room (write-back mode). */
    bool dirtyEviction = false;
};

/** One level of set-associative cache with LRU replacement. */
class Cache
{
  public:
    /** Validate the config and build the tag array. */
    explicit Cache(const CacheConfig &config);

    /**
     * Access the cache, updating tags, LRU state and statistics.
     *
     * @param addr byte address
     * @param is_write true for stores
     * @return hit/miss and eviction information
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Probe without updating any state: would this address hit? */
    bool probe(Addr addr) const;

    /**
     * Switch the write policy at run time. Contesting mode requires
     * write-through private caches (Section 4.2); dirty lines are
     * conceptually flushed on the transition, which the tag model
     * represents by clearing dirty bits.
     */
    void setWriteThrough(bool enable);

    /** The active configuration. */
    const CacheConfig &config() const { return cfg; }

    /** @name Statistics */
    /** @{ */
    std::uint64_t accesses() const { return numAccesses; }
    std::uint64_t misses() const { return numMisses; }
    double
    missRate() const
    {
        return numAccesses
            ? static_cast<double>(numMisses)
                / static_cast<double>(numAccesses)
            : 0.0;
    }
    /** @} */

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheConfig cfg;
    std::vector<Line> lines;
    unsigned blockShift;
    std::uint64_t useClock = 0;
    std::uint64_t numAccesses = 0;
    std::uint64_t numMisses = 0;
};

} // namespace contest

#endif // CONTEST_MEM_CACHE_HH
