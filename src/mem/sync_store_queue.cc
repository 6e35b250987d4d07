#include "mem/sync_store_queue.hh"

#include <algorithm>

#include "common/log.hh"

namespace contest
{

SyncStoreQueue::SyncStoreQueue(unsigned num_cores,
                               std::size_t queue_capacity)
    : cap(queue_capacity), performed(num_cores, StoreSeq{}),
      active(num_cores, true)
{
    fatal_if(num_cores == 0, "SyncStoreQueue needs at least one core");
    fatal_if(queue_capacity == 0,
             "SyncStoreQueue capacity must be non-zero");
    pendingAddrs.resize(cap, 0);
}

bool
SyncStoreQueue::canAccept(CoreId core) const
{
    panic_if(core >= performed.size(),
             "SyncStoreQueue: core %u out of range", core);
    // The merge frontier is the minimum over *active* cores, so an
    // inactive core's performed count can trail numMerged and the
    // unsigned difference below would wrap to a huge value. Dropped
    // cores never commit stores; querying one is a caller bug.
    panic_if(!active[core],
             "SyncStoreQueue: inactive core %u queried canAccept",
             core);
    return (performed[core] - numMerged).count() < cap;
}

void
SyncStoreQueue::performStore(CoreId core, Addr addr)
{
    panic_if(core >= performed.size(),
             "SyncStoreQueue: core %u out of range", core);
    panic_if(!active[core],
             "SyncStoreQueue: dropped core %u performed a store", core);
    panic_if(!canAccept(core),
             "SyncStoreQueue: core %u overflowed the queue", core);

    StoreSeq index = performed[core];
    panic_if(index < numMerged,
             "SyncStoreQueue: core %u behind the merge frontier", core);

    std::size_t offset =
        static_cast<std::size_t>((index - pendingBase).count());
    if (offset == pendingCount) {
        // First core to reach this store: record its address. The
        // canAccept panic above keeps the un-merged span below cap,
        // so the slot is free.
        pendingAddrs[(pendingHead + offset) % cap] = addr;
        ++pendingCount;
    } else {
        panic_if(offset > pendingCount,
                 "SyncStoreQueue: core %u skipped a store", core);
        const Addr seen = pendingAddrs[(pendingHead + offset) % cap];
        panic_if(seen != addr,
                 "SyncStoreQueue: redundant store streams diverge at "
                 "store %llu (0x%llx vs 0x%llx)",
                 static_cast<unsigned long long>(index.count()),
                 static_cast<unsigned long long>(seen),
                 static_cast<unsigned long long>(addr));
    }

    ++performed[core];
    tryMerge();
}

void
SyncStoreQueue::dropCore(CoreId core)
{
    panic_if(core >= active.size(),
             "SyncStoreQueue: core %u out of range", core);
    if (!active[core])
        return;
    active[core] = false;
    tryMerge();
}

void
SyncStoreQueue::tryMerge()
{
    // The merge frontier is the minimum progress over active cores.
    StoreSeq frontier = StoreSeq::max();
    bool any_active = false;
    for (std::size_t c = 0; c < performed.size(); ++c) {
        if (active[c]) {
            any_active = true;
            frontier = std::min(frontier, performed[c]);
        }
    }
    if (!any_active)
        return;

    while (numMerged < frontier) {
        panic_if(pendingCount == 0,
                 "SyncStoreQueue: merge frontier beyond recorded stores");
        pendingHead = (pendingHead + 1) % cap;
        --pendingCount;
        ++pendingBase;
        ++numMerged;
    }
}

} // namespace contest
