/**
 * @file
 * A core's private data-memory hierarchy: L1D and L2 caches in front
 * of a fixed-latency, bandwidth-limited shared level (main memory in
 * the paper's Appendix A parameterization).
 *
 * Bandwidth is modeled as a minimum gap between consecutive
 * shared-level fills: a load miss occupies the memory bus for the
 * time it takes to transfer one L2 block, a write-through store for
 * the time of one word. Queuing delay is added to the access
 * latency, which is what makes streaming workloads reward large
 * blocks and resident working sets reward large L2s even when MSHRs
 * would otherwise hide all latency.
 */

#ifndef CONTEST_MEM_HIERARCHY_HH
#define CONTEST_MEM_HIERARCHY_HH

#include <cstdint>

#include "mem/cache.hh"

namespace contest
{

/** Which level serviced an access. */
enum class MemLevel : std::uint8_t { L1, L2, Memory };

/** Outcome of a data access through the private hierarchy. */
struct MemAccessResult
{
    Cycles latency{};    //!< total latency in core cycles
    MemLevel level = MemLevel::L1;
};

/** Private L1D + L2 in front of a fixed-latency shared level. */
class DataHierarchy
{
  public:
    /**
     * @param l1_config L1 data cache geometry
     * @param l2_config private L2 geometry
     * @param memory_latency shared-level latency in core cycles
     * @param load_fill_gap min cycles between block fills (bandwidth)
     * @param store_gap min cycles between write-through word drains
     */
    DataHierarchy(const CacheConfig &l1_config,
                  const CacheConfig &l2_config, Cycles memory_latency,
                  Cycles load_fill_gap = Cycles{},
                  Cycles store_gap = Cycles{});

    /**
     * Perform a load or store at core cycle @p now, updating tags at
     * every level probed and booking memory-bus occupancy.
     *
     * @param addr byte address
     * @param is_write true for stores
     * @param now current core cycle (for bus queuing)
     * @return latency and the level that serviced the access
     */
    MemAccessResult access(Addr addr, bool is_write, Cycles now);

    /**
     * Fill one instruction block through the unified L2 after an
     * L1I miss (the L1I itself lives in the core's front end).
     *
     * @return additional cycles beyond the L1I latency
     */
    Cycles instrFill(Addr addr, Cycles now);

    /** Switch both private levels between write policies. */
    void setWriteThrough(bool enable);

    /** L1 data cache (for statistics). */
    const Cache &l1() const { return l1Cache; }

    /** Private L2 cache (for statistics). */
    const Cache &l2() const { return l2Cache; }

  private:
    Cache l1Cache;
    Cache l2Cache;
    Cycles memLatency;
    Cycles loadGap;
    Cycles storeGap;
    Cycles busFree{};
};

} // namespace contest

#endif // CONTEST_MEM_HIERARCHY_HH
