#include "harness/region_log.hh"

namespace contest
{

TimePs
RegionLog::total() const
{
    TimePs sum{};
    for (TimePs t : times)
        sum += t;
    return sum;
}

} // namespace contest
