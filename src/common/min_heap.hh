/**
 * @file
 * A small vector-backed binary min-heap.
 *
 * std::priority_queue hides its container, which prevents both
 * capacity pre-reservation and the read-only iteration the idle-skip
 * analysis needs (OooCore::nextEventCycle inspects all pending ready
 * records without popping them). This heap exposes exactly that:
 * reserve() once at construction time, items() for order-free const
 * scans, and the usual push/pop/top with strict-weak Less giving the
 * minimum at top().
 */

#ifndef CONTEST_COMMON_MIN_HEAP_HH
#define CONTEST_COMMON_MIN_HEAP_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace contest
{

/** Binary min-heap: top() is the Less-minimum element. */
template <typename T, typename Less = std::less<T>>
class MinHeap
{
  public:
    void reserve(std::size_t n) { v.reserve(n); }
    bool empty() const { return v.empty(); }
    std::size_t size() const { return v.size(); }
    void clear() { v.clear(); }

    /** Heap-order-free view of every element (const scans only). */
    const std::vector<T> &items() const { return v; }

    const T &
    top() const
    {
        panic_if(v.empty(), "MinHeap::top on empty heap");
        return v.front();
    }

    void
    push(const T &x)
    {
        // The backing vector is reserve()d once at construction by
        // every core hot-path owner, so this never reallocates.
        v.push_back(x);
        siftUp(v.size() - 1);
    }

    void
    pop()
    {
        panic_if(v.empty(), "MinHeap::pop on empty heap");
        v.front() = std::move(v.back());
        v.pop_back();
        if (!v.empty())
            siftDown(0);
    }

  private:
    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!less(v[i], v[parent]))
                break;
            std::swap(v[i], v[parent]);
            i = parent;
        }
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = v.size();
        while (true) {
            std::size_t left = 2 * i + 1;
            if (left >= n)
                break;
            std::size_t child = left;
            std::size_t right = left + 1;
            if (right < n && less(v[right], v[left]))
                child = right;
            if (!less(v[child], v[i]))
                break;
            std::swap(v[i], v[child]);
            i = child;
        }
    }

    std::vector<T> v;
    Less less;
};

} // namespace contest

#endif // CONTEST_COMMON_MIN_HEAP_HH
