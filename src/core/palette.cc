#include "core/palette.hh"

#include <algorithm>

#include "common/log.hh"

namespace contest
{

namespace
{

/**
 * Build one palette entry from its Appendix A column.
 *
 * Column order of the arguments follows the appendix rows: memory
 * latency, front-end depth, width, ROB, IQ, wakeup latency,
 * scheduler depth, clock period (ps), L1D (assoc, block, sets,
 * latency), L2 (assoc, block, sets, latency), LSQ size.
 */
CoreConfig
entry(const char *name, unsigned mem_cycles, unsigned front_end,
      unsigned width, unsigned rob, unsigned iq, unsigned wakeup,
      unsigned sched, unsigned period_ps, unsigned l1_assoc,
      unsigned l1_block, unsigned l1_sets, unsigned l1_lat,
      unsigned l2_assoc, unsigned l2_block, unsigned l2_sets,
      unsigned l2_lat, unsigned lsq)
{
    CoreConfig c;
    c.name = name;
    c.memAccessCycles = Cycles{mem_cycles};
    c.frontEndDepth = front_end;
    c.width = width;
    c.robSize = rob;
    c.iqSize = iq;
    c.wakeupLatency = Cycles{wakeup};
    c.schedDepth = Cycles{sched};
    c.clockPeriodPs = TimePs{period_ps};
    c.l1d = CacheConfig{l1_sets, l1_assoc, l1_block, Cycles{l1_lat},
                        false};
    c.l2 = CacheConfig{l2_sets, l2_assoc, l2_block, Cycles{l2_lat},
                       false};
    c.lsqSize = lsq;
    // Cache ports scale with machine width, as any balanced design
    // (and the annealer that produced these columns) would require.
    c.l1dPorts = std::max(2u, (width + 1) / 2);
    c.validate();
    return c;
}

} // namespace

const std::vector<CoreConfig> &
appendixAPalette()
{
    static const std::vector<CoreConfig> palette = {
        //    name     mem  fe  w  rob   iq  wu sd  ps   L1D: a  blk  sets lat  L2: a  blk  sets lat  lsq
        entry("bzip",   112, 4, 5, 512,  64, 0, 1, 490,     2, 32,  1024, 2,      4, 64,  8192, 15, 128),
        entry("crafty", 321, 12, 8, 64,  32, 3, 3, 190,     1, 8,  16384, 5,     16, 64,   128,  7,  64),
        entry("gap",    173, 6, 4, 128,  32, 1, 1, 330,     1, 8,   2048, 2,      4, 256,  128,  4, 256),
        entry("gcc",    186, 7, 4, 256,  32, 1, 2, 310,     1, 8,  32768, 4,      8, 64,  1024,  6, 256),
        entry("gzip",   198, 7, 4, 64,   32, 1, 1, 290,     1, 128,  256, 3,      1, 128, 4096,  5, 128),
        entry("mcf",    120, 4, 3, 1024, 64, 0, 1, 450,     2, 128, 1024, 5,      4, 128, 8192, 27,  64),
        entry("parser", 198, 7, 4, 512,  32, 1, 2, 290,     1, 64,  2048, 3,      8, 512,   32, 12, 256),
        entry("perl",   321, 12, 5, 256, 32, 3, 4, 190,     1, 8,   2048, 3,     16, 64,   128,  7, 128),
        entry("twolf",  172, 6, 5, 512,  64, 1, 2, 330,     8, 64,   128, 3,      4, 128, 2048, 12, 256),
        entry("vortex", 213, 8, 7, 512,  32, 2, 4, 270,     4, 32,  1024, 5,     16, 128,  128,  6, 256),
        entry("vpr",    172, 6, 5, 256,  64, 1, 2, 300,     2, 32,   128, 2,      8, 128, 1024, 12,  64),
    };
    return palette;
}

const CoreConfig &
coreConfigByName(const std::string &name)
{
    for (const auto &c : appendixAPalette())
        if (c.name == name)
            return c;
    fatal("unknown core type '%s'", name.c_str());
}

} // namespace contest
