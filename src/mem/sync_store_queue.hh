/**
 * @file
 * SRT-style synchronizing store queue for contested execution
 * (paper Section 4.2).
 *
 * Every contesting core performs each store redundantly in its
 * private (write-through) cache levels, but stores stop short of the
 * shared level. The synchronizing store queue buffers each store and
 * tracks which cores have privately performed it; once the *oldest*
 * store has been performed by all participating cores, a single
 * merged instance is released to the shared level.
 *
 * Because every core retires the same dynamic instruction stream in
 * order, a core's progress is fully described by a single counter of
 * performed stores, and the merged frontier is the minimum over the
 * participating cores. The queue also bounds how far the leader may
 * run ahead: when the distance between the leader's performed count
 * and the merged frontier reaches the capacity, the leader's stores
 * stall — the physical mechanism that bounds lagging distance.
 */

#ifndef CONTEST_MEM_SYNC_STORE_QUEUE_HH
#define CONTEST_MEM_SYNC_STORE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace contest
{

/** Synchronizing store queue shared by all contesting cores. */
class SyncStoreQueue
{
  public:
    /**
     * @param num_cores number of participating cores
     * @param queue_capacity max un-merged stores buffered per core
     */
    SyncStoreQueue(unsigned num_cores, std::size_t queue_capacity);

    /**
     * Would a store from this core be accepted right now? The
     * leader's stores stall when its un-merged backlog reaches the
     * queue capacity.
     */
    bool canAccept(CoreId core) const;

    /**
     * Core @p core performs its next store (in program order) to
     * @p addr. The address is recorded the first time the store is
     * seen and verified on every subsequent instance: divergence
     * means the redundant streams disagree, which is a simulator
     * invariant violation.
     */
    void performStore(CoreId core, Addr addr);

    /**
     * A core stops participating (e.g. a saturated lagger disabling
     * contesting mode): its counter no longer holds back merging.
     */
    void dropCore(CoreId core);

    /** Number of merged stores released to the shared level. */
    StoreSeq mergedCount() const { return numMerged; }

    /** Queue capacity per core. */
    std::size_t capacity() const { return cap; }

  private:
    void tryMerge();

    std::size_t cap;
    std::vector<StoreSeq> performed;
    std::vector<bool> active;
    /**
     * Addresses of stores seen but not yet merged: a ring of
     * exactly @p cap slots, allocated once at construction. The
     * un-merged span is bounded by the capacity (canAccept stalls
     * the leader at cap outstanding), so the ring never wraps onto
     * live entries and performStore never allocates.
     */
    std::vector<Addr> pendingAddrs;
    /** Ring slot holding the oldest un-merged store. */
    std::size_t pendingHead = 0;
    /** Un-merged stores currently buffered. */
    std::size_t pendingCount = 0;
    /** Stream index of the oldest un-merged store. */
    StoreSeq pendingBase{};
    StoreSeq numMerged{};
};

} // namespace contest

#endif // CONTEST_MEM_SYNC_STORE_QUEUE_HH
