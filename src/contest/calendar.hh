/**
 * @file
 * Indexed binary min-heap over the cores' next clock edges.
 *
 * ContestSystem::run used to re-scan every core's next_tick each
 * iteration; with idle-cycle skipping the scheduler also needs
 * keyed updates (a skipping core's edge jumps far ahead) and
 * removal (parked cores leave the contest). The heap orders edges
 * by (time, core id) so ties deterministically go to the lower core
 * id — exactly the order the old linear scan produced.
 */

#ifndef CONTEST_CONTEST_CALENDAR_HH
#define CONTEST_CONTEST_CALENDAR_HH

#include <cstddef>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace contest
{

/** Min-calendar of per-core clock edges, (time, id)-ordered. */
class TickCalendar
{
  public:
    explicit TickCalendar(std::size_t num_cores)
        : pos(num_cores, npos)
    {
        heap.reserve(num_cores);
    }

    bool empty() const { return heap.empty(); }
    std::size_t size() const { return heap.size(); }

    bool
    contains(CoreId core) const
    {
        return core < pos.size() && pos[core] != npos;
    }

    /** The earliest edge's core; ties favor the lower core id. */
    CoreId
    minCore() const
    {
        panic_if(heap.empty(), "TickCalendar::minCore on empty heap");
        return heap.front().core;
    }

    /** The earliest edge's time. */
    TimePs
    minTime() const
    {
        panic_if(heap.empty(), "TickCalendar::minTime on empty heap");
        return heap.front().time;
    }

    /** Insert @p core or move its edge to @p time. */
    void
    set(CoreId core, TimePs time)
    {
        panic_if(core >= pos.size(), "TickCalendar core %u out of %zu",
                 core, pos.size());
        std::size_t i = pos[core];
        if (i == npos) {
            heap.push_back(Edge{time, core});
            pos[core] = heap.size() - 1;
            siftUp(heap.size() - 1);
            return;
        }
        TimePs old = heap[i].time;
        heap[i].time = time;
        if (time < old)
            siftUp(i);
        else
            siftDown(i);
    }

    /** Drop @p core from the calendar (parked). No-op if absent. */
    void
    remove(CoreId core)
    {
        if (!contains(core))
            return;
        std::size_t i = pos[core];
        pos[core] = npos;
        Edge last = heap.back();
        heap.pop_back();
        if (i == heap.size())
            return; // removed the tail
        heap[i] = last;
        pos[last.core] = i;
        siftUp(i);
        siftDown(i);
    }

  private:
    struct Edge
    {
        TimePs time{};
        CoreId core = 0;
    };

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    static bool
    before(const Edge &a, const Edge &b)
    {
        return a.time != b.time ? a.time < b.time : a.core < b.core;
    }

    void
    place(std::size_t i, const Edge &e)
    {
        heap[i] = e;
        pos[e.core] = i;
    }

    void
    siftUp(std::size_t i)
    {
        Edge e = heap[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!before(e, heap[parent]))
                break;
            place(i, heap[parent]);
            i = parent;
        }
        place(i, e);
    }

    void
    siftDown(std::size_t i)
    {
        Edge e = heap[i];
        const std::size_t n = heap.size();
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap[child + 1], heap[child]))
                ++child;
            if (!before(heap[child], e))
                break;
            place(i, heap[child]);
            i = child;
        }
        place(i, e);
    }

    std::vector<Edge> heap;
    /** Heap index of each core, or npos when absent. */
    std::vector<std::size_t> pos;
};

} // namespace contest

#endif // CONTEST_CONTEST_CALENDAR_HH
