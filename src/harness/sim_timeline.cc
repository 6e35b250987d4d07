#include "harness/sim_timeline.hh"

#include <algorithm>
#include <cstdio>

namespace contest
{

void
SimTimeline::record(Kind kind, std::string label,
                    Clock::time_point queued, Clock::time_point start,
                    Clock::time_point end, bool cached)
{
    Span s;
    s.kind = kind;
    s.label = std::move(label);
    s.cached = cached;
    s.queuedSec = sinceEpoch(queued);
    s.startSec = sinceEpoch(start);
    s.endSec = sinceEpoch(end);
    std::lock_guard<std::mutex> lock(mu);
    recorded.push_back(std::move(s));
}

std::vector<SimTimeline::Span>
SimTimeline::spans() const
{
    std::vector<Span> out;
    {
        std::lock_guard<std::mutex> lock(mu);
        out = recorded;
    }
    std::sort(out.begin(), out.end(),
              [](const Span &a, const Span &b) {
                  if (a.queuedSec != b.queuedSec)
                      return a.queuedSec < b.queuedSec;
                  return a.label < b.label;
              });
    return out;
}

SimTimeline::Summary
SimTimeline::summary() const
{
    Summary s;
    double first_queue = 0.0;
    double last_end = 0.0;
    bool any = false;
    for (const Span &span : spans()) {
        if (span.cached) {
            ++s.cacheHits;
        } else {
            ++s.sims;
            s.busySec += span.endSec - span.startSec;
        }
        s.queueSec += span.startSec - span.queuedSec;
        if (!any || span.queuedSec < first_queue)
            first_queue = span.queuedSec;
        if (!any || span.endSec > last_end)
            last_end = span.endSec;
        any = true;
    }
    if (any)
        s.wallSec = last_end - first_queue;
    return s;
}

JsonValue
SimTimeline::toJson(unsigned jobs) const
{
    Summary s = summary();
    JsonValue root = JsonValue::object();
    root.set("jobs", JsonValue::number(jobs));
    root.set("sims", JsonValue::number(static_cast<double>(s.sims)));
    root.set("cache_hits",
             JsonValue::number(static_cast<double>(s.cacheHits)));
    root.set("busy_sec", JsonValue::number(s.busySec));
    root.set("wall_sec", JsonValue::number(s.wallSec));
    root.set("queue_sec", JsonValue::number(s.queueSec));
    root.set("concurrency", JsonValue::number(s.concurrency()));

    JsonValue arr = JsonValue::array();
    for (const Span &span : spans()) {
        JsonValue e = JsonValue::object();
        e.set("kind", JsonValue::str(span.kind == Kind::Contest
                                         ? "contest"
                                         : "single"));
        e.set("label", JsonValue::str(span.label));
        e.set("cached", JsonValue::boolean(span.cached));
        e.set("queued_sec", JsonValue::number(span.queuedSec));
        e.set("start_sec", JsonValue::number(span.startSec));
        e.set("end_sec", JsonValue::number(span.endSec));
        arr.push(std::move(e));
    }
    root.set("spans", std::move(arr));
    return root;
}

std::string
SimTimeline::renderReport(unsigned jobs) const
{
    Summary s = summary();
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "== timing: %zu simulation(s) + %zu cache hit(s), "
                  "busy %.2f s over %.2f s wall (%.2fx mean "
                  "concurrency on %u jobs), %.2f s queued\n",
                  s.sims, s.cacheHits, s.busySec, s.wallSec,
                  s.concurrency(), jobs, s.queueSec);
    out += buf;

    std::vector<Span> slowest = spans();
    std::sort(slowest.begin(), slowest.end(),
              [](const Span &a, const Span &b) {
                  return (a.endSec - a.startSec)
                      > (b.endSec - b.startSec);
              });
    std::size_t top = std::min<std::size_t>(slowest.size(), 5);
    for (std::size_t i = 0; i < top; ++i) {
        const Span &span = slowest[i];
        std::snprintf(buf, sizeof(buf),
                      "   %-8s %-28s %7.3f s (queued %.3f s)%s\n",
                      span.kind == Kind::Contest ? "contest"
                                                 : "single",
                      span.label.c_str(), span.endSec - span.startSec,
                      span.startSec - span.queuedSec,
                      span.cached ? " [disk]" : "");
        out += buf;
    }
    return out;
}

} // namespace contest
