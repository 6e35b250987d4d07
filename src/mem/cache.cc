#include "mem/cache.hh"

#include <bit>

#include "common/log.hh"

namespace contest
{

Cache::Cache(const CacheConfig &config)
    : cfg(config)
{
    fatal_if(cfg.sets == 0 || (cfg.sets & (cfg.sets - 1)) != 0,
             "cache sets must be a non-zero power of two (got %u)",
             cfg.sets);
    fatal_if(cfg.assoc == 0, "cache associativity must be non-zero");
    fatal_if(cfg.blockBytes == 0
                 || (cfg.blockBytes & (cfg.blockBytes - 1)) != 0,
             "cache block size must be a non-zero power of two (got %u)",
             cfg.blockBytes);
    blockShift =
        static_cast<unsigned>(std::countr_zero(cfg.blockBytes));
    lines.assign(std::size_t{cfg.sets} * cfg.assoc, Line{});
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr >> blockShift) & (cfg.sets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> blockShift;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    ++numAccesses;
    ++useClock;

    CacheAccessResult result;
    Addr tag = tagOf(addr);
    Line *base = &lines[setIndex(addr) * cfg.assoc];

    Line *victim = &base[0];
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            result.hit = true;
            line.lastUse = useClock;
            if (is_write && !cfg.writeThrough)
                line.dirty = true;
            return result;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++numMisses;

    // Every miss allocates, write misses included.
    if (victim->valid && victim->dirty)
        result.dirtyEviction = true;
    victim->valid = true;
    victim->dirty = is_write && !cfg.writeThrough;
    victim->tag = tag;
    victim->lastUse = useClock;
    return result;
}

bool
Cache::probe(Addr addr) const
{
    Addr tag = tagOf(addr);
    const Line *base = &lines[setIndex(addr) * cfg.assoc];
    for (unsigned w = 0; w < cfg.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::setWriteThrough(bool enable)
{
    cfg.writeThrough = enable;
    if (enable)
        for (auto &line : lines)
            line.dirty = false;
}

} // namespace contest
