/**
 * @file
 * Contest clock-calendar tests: earliestEdge, the scan over per-core
 * next edges that ContestSystem steps by, must order edges by
 * (time, core id) — equal-time ties deterministically go to the
 * lower core id — follow edges that move either way, and never pick
 * a parked core.
 */

#include <gtest/gtest.h>

#include "contest/system.hh"
#include "core/palette.hh"
#include "trace/generator.hh"

namespace contest
{
namespace
{

constexpr TimePs parked = TimePs::max();

TEST(ContestCalendar, EqualTimesGoToTheLowerCoreId)
{
    std::vector<TimePs> edges(4, TimePs{100});
    // Park the current minimum each round: the rest still surface in
    // core-id order.
    for (CoreId expect : {0u, 1u, 2u, 3u}) {
        EXPECT_EQ(earliestEdge(edges), expect);
        edges[expect] = parked;
    }
}

TEST(ContestCalendar, AMovedEdgeReordersBothWays)
{
    std::vector<TimePs> edges{TimePs{300}, TimePs{200}, TimePs{100}};
    EXPECT_EQ(earliestEdge(edges), 2u);

    edges[2] = TimePs{400}; // later: core 1 surfaces
    EXPECT_EQ(earliestEdge(edges), 1u);

    edges[0] = TimePs{50}; // earlier: core 0 surfaces
    EXPECT_EQ(earliestEdge(edges), 0u);

    // A move to an equal time still favors the lower id.
    edges[1] = TimePs{50};
    EXPECT_EQ(earliestEdge(edges), 0u);
}

TEST(ContestCalendar, ParkedCoresAreNeverPicked)
{
    std::vector<TimePs> edges{TimePs{50}, TimePs{40}, TimePs{30},
                              TimePs{20}, TimePs{10}};
    edges[4] = parked;
    EXPECT_EQ(earliestEdge(edges), 3u);
    edges[1] = parked; // an interior core parks
    // The remaining cores come up in time order.
    for (CoreId expect : {3u, 2u, 0u}) {
        EXPECT_EQ(earliestEdge(edges), expect);
        edges[expect] = parked;
    }
}

TEST(ContestCalendarDeathTest, EveryCoreParkedIsADeadlock)
{
    std::vector<TimePs> edges(3, parked);
    EXPECT_DEATH(earliestEdge(edges), "every core is parked");
}

TEST(ContestCalendar, IdenticalCoresContestDeterministically)
{
    // Two identical cores tie on every clock edge; the calendar's
    // id tie-break makes the whole contest deterministic. Same-config
    // runs must agree exactly, and core 0 — ticked first on every
    // edge — leads.
    auto trace = makeBenchmarkTrace("twolf", 2009, 15000);
    auto run = [&] {
        ContestSystem sys({coreConfigByName("twolf"),
                           coreConfigByName("twolf")},
                          trace);
        return sys.run();
    };
    auto r1 = run();
    auto r2 = run();
    EXPECT_EQ(r1.timePs, r2.timePs);
    EXPECT_EQ(r1.leadChanges, r2.leadChanges);
    EXPECT_EQ(r1.leadFraction[0], r2.leadFraction[0]);
    EXPECT_EQ(r1.mergedStores, r2.mergedStores);
    // The tie-break hands every edge to core 0 first, so it leads
    // the overwhelming majority of the trace.
    EXPECT_GT(r1.leadFraction[0], r1.leadFraction[1]);
}

} // namespace
} // namespace contest
