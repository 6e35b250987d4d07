/**
 * @file
 * Cycle-indexed event ring (timing wheel) for the core's per-tick
 * event queues (DESIGN.md §12).
 *
 * The out-of-order core schedules every instruction's completion,
 * every load/MSHR release and every operand-arrival wakeup as a
 * (cycle, payload) event. A binary heap makes each of those an
 * O(log n) sift through scattered nodes; but the cycles involved are
 * almost always within a few hundred of "now" (scheduler depth plus
 * the worst memory round trip), so a power-of-two ring of per-cycle
 * buckets gives O(1) pushes and drains that touch only the cycles
 * that actually hold events — an occupancy bit per bucket makes
 * "when is the next event?" a find-first-set scan over a handful of
 * words. Events beyond the ring's horizon (unbounded memory-bus
 * queuing delay) spill into a small overflow priority queue, so no
 * bound on event latency is assumed.
 *
 * Bucket storage is one shared node pool threaded through intrusive
 * per-bucket chains. Per-bucket vectors would re-allocate whenever
 * any single bucket hit a new depth — a warm-up that never ends,
 * since the pool of buckets is large and rarely-deep ones keep
 * being hit; the shared pool's high-water mark is the *total*
 * simultaneous in-flight events, a structural bound the caller can
 * pre-reserve at init.
 *
 * Drain order within one cycle is bucket insertion order, not the
 * heap's (cycle, payload) order; every user's per-cycle handler is
 * commutative (setting ready bits, counting releases), which is what
 * keeps the replacement bit-identical.
 */

#ifndef CONTEST_COMMON_CYCLE_RING_HH
#define CONTEST_COMMON_CYCLE_RING_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/soa.hh"
#include "common/types.hh"

namespace contest
{

/**
 * A queue of (cycle, T) events drained in nondecreasing cycle order.
 *
 * Invariants: pushes land strictly after their push tick (a cycle
 * already due is clamped to the next drain — the same tick it would
 * have surfaced from a heap), and the clock — stepped or idle-skipped
 * — never passes a pending event, so by the time drainUpTo() runs,
 * every ring-resident event still lies within one span of the last
 * drain point (enforced by the panic below).
 */
template <typename T>
class CycleRing
{
  public:
    /**
     * Size the ring to cover at least @p min_span cycles ahead and
     * pre-reserve the event pool for @p reserve_events simultaneous
     * events. Events live in one shared node pool threaded through
     * per-bucket intrusive lists, so bucket capacity never warms up
     * bucket-by-bucket the way per-bucket vectors would: reserving
     * the caller's structural in-flight bound (ROB, IQ, LSQ size)
     * makes every steady-state push allocation-free from the first
     * tick.
     */
    void
    init(std::size_t min_span, std::size_t reserve_events = 0)
    {
        span = nextPow2(min_span);
        posMask = span - 1;
        bucketHead.assign(span, -1);
        bucketTail.assign(span, -1);
        occW.assign(maskWords(span), 0);
        poolVal.reserve(reserve_events);
        poolNext.reserve(reserve_events);
    }

    bool empty() const { return ringCount + overflow.size() == 0; }

    std::size_t size() const { return ringCount + overflow.size(); }

    /** Is some event due at or before cycle @p cur? */
    bool
    due(Cycles cur) const
    {
        return !empty() && nextAt() <= cur;
    }

    /**
     * Queue @p v for cycle @p at, pushed during the tick at cycle
     * @p now. An @p at in the past is clamped to now + 1 — the next
     * drain, exactly when a heap would have surfaced it.
     */
    void
    push(Cycles now, Cycles at, const T &v)
    {
        if (at <= now)
            at = now + 1;
        if (at > drainedUpTo + span) {
            // Beyond the horizon (pathological bus queuing): spill.
            overflow.push({at, v});
        } else {
            const std::size_t p =
                static_cast<std::size_t>(at.count()) & posMask;
            // Take a pool node (the free list covers the structural
            // in-flight bound after init; growth is a first-lap
            // rarity) and append it to the bucket's chain — tail
            // insertion keeps delivery in push order.
            std::int32_t idx = freeHead;
            if (idx >= 0) {
                freeHead = poolNext[static_cast<std::size_t>(idx)];
                poolVal[static_cast<std::size_t>(idx)] = v;
            } else {
                idx = static_cast<std::int32_t>(poolVal.size());
                poolVal.push_back(v);
                poolNext.push_back(-1);
            }
            poolNext[static_cast<std::size_t>(idx)] = -1;
            if (bucketTail[p] >= 0)
                poolNext[static_cast<std::size_t>(bucketTail[p])] =
                    idx;
            else
                bucketHead[p] = idx;
            bucketTail[p] = idx;
            bitSet(occW, p);
            ++ringCount;
        }
        // Only lower a valid cache: an invalidated one may hide a
        // surviving event older than this push.
        if (cacheValid && at < cachedNext)
            cachedNext = at;
    }

    /** Earliest pending event cycle (call only when !empty()). */
    Cycles
    nextAt() const
    {
        if (cacheValid)
            return cachedNext;
        Cycles best = Cycles::max();
        if (ringCount != 0) {
            // First occupied bucket after drainedUpTo: rotate a word
            // walk around the (few-word) occupancy bitmap, masking
            // the first word below the start bit.
            const std::size_t start =
                (static_cast<std::size_t>(drainedUpTo.count()) + 1)
                & posMask;
            const std::size_t words = occW.size();
            std::size_t wi = start >> 6;
            std::uint64_t word = occW[wi] & (~std::uint64_t{0}
                                             << (start & 63));
            for (std::size_t n = 0;; ++n) {
                if (word != 0) {
                    const std::size_t p =
                        (wi << 6) + std::countr_zero(word);
                    const std::size_t dist =
                        ((p + span - start) & posMask) + 1;
                    best = drainedUpTo + dist;
                    break;
                }
                // The walk may legitimately revisit the start word
                // once, for the bits below the start position.
                panic_if(n > words,
                         "CycleRing occupancy desynced from count");
                wi = wi + 1 == words ? 0 : wi + 1;
                word = occW[wi];
                if (wi == start >> 6)
                    word &= (std::uint64_t{1} << (start & 63)) - 1;
            }
        }
        if (!overflow.empty() && overflow.top().first < best)
            best = overflow.top().first;
        cachedNext = best;
        cacheValid = true;
        return best;
    }

    /**
     * Deliver every event with cycle <= @p cur to @p fn: the ring's
     * in nondecreasing cycle order (insertion order within a cycle),
     * then the overflow's in (cycle, payload) order. A drain that
     * spans several event cycles may so deliver an overflow event
     * after a later ring event. The core never sees that: it drains
     * at the first tick an event is due, so all it delivers share a
     * cycle.
     */
    template <typename Fn>
    void
    drainUpTo(Cycles cur, Fn &&fn)
    {
        if (cur <= drainedUpTo)
            return;
        bool delivered = false;
        if (ringCount != 0) {
            const auto ahead =
                static_cast<std::size_t>((cur - drainedUpTo).count());
            panic_if(ahead > span,
                     "CycleRing drained %zu past its %zu-cycle span "
                     "with events pending",
                     ahead, span);
            const auto base = static_cast<std::size_t>(
                drainedUpTo.count());
            auto deliver = [&](std::size_t p) {
                // Walk the bucket's chain in push order, returning
                // each node to the free list after its value and
                // successor are extracted — a handler may push (and
                // so reuse the node) for a later cycle immediately.
                std::int32_t i = bucketHead[p];
                while (i >= 0) {
                    const auto u = static_cast<std::size_t>(i);
                    const T v = poolVal[u];
                    const std::int32_t nx = poolNext[u];
                    poolNext[u] = freeHead;
                    freeHead = i;
                    --ringCount;
                    fn(v);
                    i = nx;
                }
                bucketHead[p] = -1;
                bucketTail[p] = -1;
                bitClear(occW, p);
                delivered = true;
                return ringCount != 0;
            };
            if (ahead <= 4) {
                // The clock usually advances a cycle or two per
                // drain; a plain bucket walk beats a masked bitmap
                // scan at that distance.
                for (std::size_t d = 1; d <= ahead; ++d) {
                    const std::size_t p = (base + d) & posMask;
                    if (!bitTest(occW, p))
                        continue;
                    if (!deliver(p))
                        break;
                }
            } else {
                // After a longer gap (the stage was gated off while
                // nothing was due) scan the occupancy bitmap instead
                // of touching every elapsed bucket. Position order
                // along the wrapped range is cycle order.
                const std::size_t start = (base + 1) & posMask;
                const std::size_t first = std::min(ahead, span - start);
                if (scanBits(occW, start, start + first, deliver)
                    && ahead > first)
                    scanBits(occW, 0, ahead - first, deliver);
            }
        }
        while (!overflow.empty() && overflow.top().first <= cur) {
            T v = overflow.top().second;
            overflow.pop();
            fn(v);
            delivered = true;
        }
        drainedUpTo = cur;
        // Undelivered events all lie past cur, so an untouched queue
        // keeps its cached minimum.
        if (delivered)
            cacheValid = false;
    }

  private:
    std::size_t span = 0;
    std::size_t posMask = 0;
    Cycles drainedUpTo{};
    std::size_t ringCount = 0;
    /** Event node pool: values + free-list / bucket-chain links. */
    std::vector<T> poolVal;
    std::vector<std::int32_t> poolNext;
    std::int32_t freeHead = -1;
    /** Per-bucket chain bounds into the pool (-1 = empty). Tail
     *  insertion preserves push order within a cycle. */
    SoaVec<std::int32_t> bucketHead;
    SoaVec<std::int32_t> bucketTail;
    SoaVec<std::uint64_t> occW;
    /** Events past the horizon, least (cycle, payload) on top. */
    using Event = std::pair<Cycles, T>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        overflow;
    /** Min pending cycle; lazily recomputed after a drain. */
    mutable Cycles cachedNext = Cycles::max();
    mutable bool cacheValid = true;
};

} // namespace contest

#endif // CONTEST_COMMON_CYCLE_RING_HH
