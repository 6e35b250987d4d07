/**
 * @file
 * Fixed-capacity ring buffer for pipeline queues.
 *
 * The pipeline's in-order windows (ROB, fetch queue) have hard
 * architectural capacities, so a preallocated circular array beats a
 * node- or chunk-allocating std::deque on the simulator's hottest
 * paths: no allocation after construction, indexing is two adds and
 * a conditional subtract, and the storage is contiguous enough to
 * prefetch. The interface mirrors the std::deque subset the core
 * model uses (front/back/push_back/pop_front/operator[]).
 */

#ifndef CONTEST_COMMON_RING_BUFFER_HH
#define CONTEST_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <vector>

#include "common/log.hh"

namespace contest
{

/** Fixed-capacity FIFO over a preallocated circular array. */
template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    /** @param cap hard capacity; push_back beyond it panics. */
    explicit RingBuffer(std::size_t cap) { reset(cap); }

    /** (Re)size the backing store and drop all contents. */
    void
    reset(std::size_t cap)
    {
        fatal_if(cap == 0, "RingBuffer capacity must be positive");
        // Capacity is fixed at construction; a later reset() to the
        // same cap reuses the storage.
        buf.assign(cap, T{});
        head = 0;
        count = 0;
    }

    std::size_t size() const { return count; }
    std::size_t capacity() const { return buf.size(); }
    bool empty() const { return count == 0; }
    bool full() const { return count == buf.size(); }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    T &
    front()
    {
        panic_if(count == 0, "RingBuffer::front on empty buffer");
        return buf[head];
    }

    const T &
    front() const
    {
        panic_if(count == 0, "RingBuffer::front on empty buffer");
        return buf[head];
    }

    T &
    back()
    {
        panic_if(count == 0, "RingBuffer::back on empty buffer");
        return buf[wrap(head + count - 1)];
    }

    const T &
    back() const
    {
        panic_if(count == 0, "RingBuffer::back on empty buffer");
        return buf[wrap(head + count - 1)];
    }

    /** @p i counted from the front (0 = oldest). */
    T &
    operator[](std::size_t i)
    {
        panic_if(i >= count, "RingBuffer index %zu out of %zu", i,
                 count);
        return buf[wrap(head + i)];
    }

    const T &
    operator[](std::size_t i) const
    {
        panic_if(i >= count, "RingBuffer index %zu out of %zu", i,
                 count);
        return buf[wrap(head + i)];
    }

    void
    push_back(const T &v)
    {
        panic_if(full(), "RingBuffer overflow at capacity %zu",
                 buf.size());
        buf[wrap(head + count)] = v;
        ++count;
    }

    void
    pop_front()
    {
        panic_if(count == 0, "RingBuffer::pop_front on empty buffer");
        head = wrap(head + 1);
        --count;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        // Capacities are small and arbitrary (not powers of two); a
        // compare-and-subtract beats an integer modulo here.
        return i >= buf.size() ? i - buf.size() : i;
    }

    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace contest

#endif // CONTEST_COMMON_RING_BUFFER_HH
