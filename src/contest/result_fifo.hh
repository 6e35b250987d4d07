/**
 * @file
 * Result FIFO with pop-counter semantics (paper Section 4.1.2).
 *
 * A core receives the retired-instruction results of every other
 * core through per-source result FIFOs. Because a source retires
 * the shared dynamic instruction stream in order, the FIFO's content
 * is fully described by the stream position of its head entry (the
 * pop counter) plus the arrival time of each buffered entry. An
 * entry is "in the FIFO" once its GRB propagation delay has elapsed;
 * entries pushed but not yet arrived model results in flight on the
 * bus.
 */

#ifndef CONTEST_CONTEST_RESULT_FIFO_HH
#define CONTEST_CONTEST_RESULT_FIFO_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "common/log.hh"
#include "common/soa.hh"
#include "common/types.hh"

namespace contest
{

/**
 * One incoming result FIFO (one per source core).
 *
 * The buffer is a flat power-of-two ring of arrival times rather
 * than a node-based deque: the core polls the head every cycle it
 * is stalled on a branch, so the head read must be one contiguous
 * load, and pushes/pops are index arithmetic.
 */
class ResultFifo
{
  public:
    /** @param capacity maximum buffered entries (lagging window) */
    explicit ResultFifo(std::size_t capacity)
        : cap(capacity), ringMask(nextPow2(capacity) - 1),
          arrivals(nextPow2(capacity))
    {
        fatal_if(capacity == 0, "ResultFifo capacity must be non-zero");
    }

    /**
     * The source core retired instruction @p seq; its result arrives
     * here at @p arrival. Results are pushed in retirement order.
     *
     * @return false if the FIFO overflowed (the receiving core is a
     *         saturated lagger); the entry is not recorded.
     */
    bool
    push(InstSeq seq, TimePs arrival)
    {
        panic_if(seq != headSeq_ + count,
                 "ResultFifo: out-of-order push (%llu, expected %llu)",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(headSeq_ + count));
        if (count >= cap)
            return false;
        arrivals[(head + count) & ringMask] = arrival;
        ++count;
        return true;
    }

    /** Stream position of the head entry — the pop counter. */
    InstSeq headSeq() const { return headSeq_; }

    /** Number of buffered (including in-flight) entries. */
    std::size_t size() const { return count; }

    /** Is the FIFO empty of pushed entries? */
    bool empty() const { return count == 0; }

    /**
     * Has the head entry physically arrived by time @p now? An
     * empty FIFO has no arrived head.
     */
    bool
    headArrived(TimePs now) const
    {
        return count != 0 && arrivals[head] <= now;
    }

    /** Arrival time of the head entry, if one was pushed. */
    std::optional<TimePs>
    headArrival() const
    {
        if (count == 0)
            return std::nullopt;
        return arrivals[head];
    }

    /** Pop the head entry, advancing the pop counter. */
    void
    pop()
    {
        panic_if(count == 0, "ResultFifo: pop from empty FIFO");
        head = (head + 1) & ringMask;
        --count;
        ++headSeq_;
    }

    /**
     * Discard every entry strictly older than @p seq — late results
     * a non-trailing core pops and drops (Scenario #1).
     *
     * @return number of discarded entries
     */
    std::size_t
    discardBelow(InstSeq seq)
    {
        // Buffered entries carry the contiguous stream positions
        // headSeq_ .. headSeq_ + count - 1, so the discard count is
        // arithmetic, no per-entry walk.
        if (seq <= headSeq_)
            return 0;
        const std::size_t n = std::min<std::size_t>(
            count, (seq - headSeq_).count());
        head = (head + n) & ringMask;
        count -= n;
        headSeq_ += n;
        return n;
    }

    /**
     * Drop all buffered entries (core parked), advancing the pop
     * counter past them. The source keeps retiring in order, so the
     * next push carries seq = headSeq_ + old size(); leaving the pop
     * counter at the old head would make that push look out of order
     * and panic.
     */
    void
    clear()
    {
        headSeq_ += count;
        head = 0;
        count = 0;
    }

  private:
    std::size_t cap;
    std::size_t ringMask;
    std::vector<TimePs> arrivals;
    std::size_t head = 0;
    std::size_t count = 0;
    InstSeq headSeq_{};
};

} // namespace contest

#endif // CONTEST_CONTEST_RESULT_FIFO_HH
