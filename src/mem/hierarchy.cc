#include "mem/hierarchy.hh"

#include <algorithm>

namespace contest
{

DataHierarchy::DataHierarchy(const CacheConfig &l1_config,
                             const CacheConfig &l2_config,
                             Cycles memory_latency,
                             Cycles load_fill_gap, Cycles store_gap)
    : l1Cache(l1_config), l2Cache(l2_config),
      memLatency(memory_latency), loadGap(load_fill_gap),
      storeGap(store_gap)
{}

MemAccessResult
DataHierarchy::access(Addr addr, bool is_write, Cycles now)
{
    MemAccessResult result;
    result.latency = l1Cache.config().latency;

    auto l1 = l1Cache.access(addr, is_write);
    if (l1.hit) {
        result.level = MemLevel::L1;
        // A write-through store is also propagated to L2 tags so the
        // private levels stay inclusive of each other's updates; its
        // latency is hidden by the store buffer.
        if (is_write && l1Cache.config().writeThrough)
            l2Cache.access(addr, true);
        return result;
    }

    result.latency += l2Cache.config().latency;
    auto l2 = l2Cache.access(addr, is_write);
    if (l2.hit) {
        result.level = MemLevel::L2;
        return result;
    }

    // Shared-level access: acquire a bus slot, then pay the fixed
    // latency. Loads occupy the bus for a block transfer, stores for
    // a buffered word drain.
    result.level = MemLevel::Memory;
    Cycles slot_start = std::max(now, busFree);
    Cycles queue_delay = slot_start - now;
    busFree = slot_start + (is_write ? storeGap : loadGap);
    result.latency += queue_delay + memLatency;
    return result;
}

Cycles
DataHierarchy::instrFill(Addr addr, Cycles now)
{
    auto l2 = l2Cache.access(addr, false);
    if (l2.hit)
        return l2Cache.config().latency;
    Cycles slot_start = std::max(now, busFree);
    Cycles queue_delay = slot_start - now;
    busFree = slot_start + loadGap;
    return l2Cache.config().latency + queue_delay + memLatency;
}

void
DataHierarchy::setWriteThrough(bool enable)
{
    l1Cache.setWriteThrough(enable);
    l2Cache.setWriteThrough(enable);
}

} // namespace contest
