#include "harness/result_cache.hh"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include <unistd.h>

#include "common/hash.hh"
#include "common/log.hh"

namespace contest
{

namespace
{

/**
 * Publish @p payload at @p final_path atomically: write to a
 * uniquely named temp file in the same directory, verify every byte
 * reached the filesystem (the final flush at close() is where a full
 * disk surfaces), then rename into place. The temp name includes a
 * process-wide counter besides the pid so two pool threads storing
 * the same key never interleave writes into one temp file.
 */
bool
writeEntryAtomic(const std::string &final_path,
                 const std::string &payload)
{
    static std::atomic<std::uint64_t> tmpSerial{0};
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(getpid()) + "."
        + std::to_string(tmpSerial.fetch_add(1));
    std::error_code ec;
    {
        std::ofstream out(tmp_path, std::ios::binary);
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        // close() before checking: the destructor would swallow a
        // failed final flush, renaming a truncated entry into place.
        out.close();
        if (out.fail()) {
            warn("result cache: write to '%s' failed",
                 tmp_path.c_str());
            std::filesystem::remove(tmp_path, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        warn("result cache: rename to '%s' failed: %s",
             final_path.c_str(), ec.message().c_str());
        std::filesystem::remove(tmp_path, ec);
        return false;
    }
    return true;
}

/** Append integer @p v in decimal. std::to_chars writes exactly the
 *  digits ostream's operator<< does, so keys match the entries any
 *  earlier ostringstream-built key stored. */
template <typename T>
void
appendNum(std::string &key, T v)
{
    char buf[24];
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** Append @p tag, then the integers @p vs '/'-separated, then ';'. */
template <typename... Ts>
void
appendField(std::string &key, std::string_view tag, Ts... vs)
{
    key += tag;
    const char *sep = "";
    ((key += sep, appendNum(key, vs), sep = "/"), ...);
    key += ';';
}

void
appendCacheGeom(std::string &key, std::string_view tag,
                const CacheConfig &c)
{
    appendField(key, tag, c.sets, c.assoc, c.blockBytes,
                c.latency.count(), c.writeThrough ? 1 : 0);
}

/** Little-endian binary writer. */
struct Writer
{
    std::string buf;

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
};

/** Little-endian binary reader; any overrun poisons ok. */
struct Reader
{
    const std::string &buf;
    std::size_t pos = 0;
    bool ok = true;

    explicit Reader(const std::string &data) : buf(data) {}

    std::uint64_t
    u64()
    {
        if (pos + 8 > buf.size()) {
            ok = false;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string_view
    bytes(std::uint64_t n)
    {
        if (n > buf.size() - pos) {
            ok = false;
            return {};
        }
        std::string_view s(buf.data() + pos, n);
        pos += n;
        return s;
    }

    /**
     * A record count. Every record is at least one 8-byte word, so a
     * count the rest of the file cannot hold is corrupt: it poisons
     * ok and reads as 0 before any caller sizes a container by it.
     */
    std::uint64_t
    count()
    {
        const std::uint64_t n = u64();
        if (n > (buf.size() - pos) / 8) {
            ok = false;
            return 0;
        }
        return n;
    }
};

constexpr char cacheMagic[4] = {'C', 'T', 'R', 'C'};
/** Contest entries carry a distinct magic so the two entry kinds can
 *  never deserialize as one another, digest collisions included. */
constexpr char contestMagic[4] = {'C', 'T', 'C', 'T'};

void
writeStats(Writer &w, const CoreStats &s)
{
    w.u64(s.cycles.count());
    w.u64(s.retired);
    w.u64(s.injected);
    w.u64(s.condBranches);
    w.u64(s.mispredicts);
    w.u64(s.earlyResolves);
    w.u64(s.btbMissRedirects);
    w.u64(s.syscalls);
    w.u64(s.icacheMisses);
    w.u64(s.fetchStallBranch.count());
    w.u64(s.robFullStalls.count());
    w.u64(s.iqFullStalls.count());
    w.u64(s.lsqFullStalls.count());
    w.u64(s.storeQueueStalls.count());
    w.u64(s.syscallStalls.count());
}

void
readStats(Reader &r, CoreStats &s)
{
    s.cycles = Cycles{r.u64()};
    s.retired = r.u64();
    s.injected = r.u64();
    s.condBranches = r.u64();
    s.mispredicts = r.u64();
    s.earlyResolves = r.u64();
    s.btbMissRedirects = r.u64();
    s.syscalls = r.u64();
    s.icacheMisses = r.u64();
    s.fetchStallBranch = Cycles{r.u64()};
    s.robFullStalls = Cycles{r.u64()};
    s.iqFullStalls = Cycles{r.u64()};
    s.lsqFullStalls = Cycles{r.u64()};
    s.storeQueueStalls = Cycles{r.u64()};
    s.syscallStalls = Cycles{r.u64()};
}

void
writeEnergy(Writer &w, const EnergyBreakdown &e)
{
    w.f64(e.staticNj);
    w.f64(e.pipelineNj);
    w.f64(e.cacheNj);
    w.f64(e.bpredNj);
    w.f64(e.squashNj);
    w.f64(e.contestNj);
}

void
readEnergy(Reader &r, EnergyBreakdown &e)
{
    e.staticNj = r.f64();
    e.pipelineNj = r.f64();
    e.cacheNj = r.f64();
    e.bpredNj = r.f64();
    e.squashNj = r.f64();
    e.contestNj = r.f64();
}

/** Every CoreConfig field that shapes a simulation, in one canonical
 *  serialization shared by the single-run and contest keys. */
void
appendCoreConfig(std::string &key, const CoreConfig &core)
{
    key.append("core=").append(core.name).append(";");
    appendField(key, "memlat=", core.memAccessCycles.count());
    appendField(key, "fed=", core.frontEndDepth);
    appendField(key, "width=", core.width);
    appendField(key, "rob=", core.robSize);
    appendField(key, "iq=", core.iqSize);
    appendField(key, "wakeup=", core.wakeupLatency.count());
    appendField(key, "sched=", core.schedDepth.count());
    appendField(key, "clock=", core.clockPeriodPs.count());
    appendCacheGeom(key, "l1d=", core.l1d);
    appendCacheGeom(key, "l2=", core.l2);
    appendField(key, "lsq=", core.lsqSize);
    appendField(key, "l1dports=", core.l1dPorts);
    appendField(key, "mshrs=", core.mshrs);
    char bw[64];
    std::snprintf(bw, sizeof(bw), "bw=%.17g;",
                  core.memBandwidthBytesPerNs);
    key += bw;
    appendField(key, "btbmiss=", core.btbMissPenalty.count());
    appendField(key, "syscall=", core.syscallHandlerCycles.count());
    appendField(key, "bpred=", core.bpred.tableBits,
                core.bpred.historyBits, core.bpred.localHistBits,
                core.bpred.localTableBits);
    appendField(key, "btb=", core.btb.sets, core.btb.assoc);
    appendField(key, "icache=", core.modelICache ? 1 : 0);
    appendCacheGeom(key, "l1i=", core.l1i);
}

void
writeUnitStats(Writer &w, const UnitStats &s)
{
    w.u64(s.paired);
    w.u64(s.discarded);
    w.u64(s.broadcasts);
    w.u64(s.saturated ? 1 : 0);
    w.u64(s.parkedAt.count());
}

void
readUnitStats(Reader &r, UnitStats &s)
{
    s.paired = r.u64();
    s.discarded = r.u64();
    s.broadcasts = r.u64();
    s.saturated = r.u64() != 0;
    s.parkedAt = TimePs{r.u64()};
}

} // namespace

ResultCache::ResultCache(std::string cache_dir, int version)
    : dir(std::move(cache_dir)), formatVersion(version)
{
    fatal_if(dir.empty(),
             "ResultCache needs a non-empty cache directory");
}

std::string
ResultCache::singleRunKey(const CoreConfig &core,
                          const std::string &bench,
                          std::uint64_t seed, std::uint64_t trace_len)
{
    std::string key;
    key.reserve(320);
    key.append("bench=").append(bench).append(";");
    appendField(key, "seed=", seed);
    appendField(key, "len=", trace_len);
    appendCoreConfig(key, core);
    return key;
}

std::string
ResultCache::contestKey(const std::string &bench,
                        const std::vector<CoreConfig> &cores,
                        const ContestConfig &config,
                        std::uint64_t seed, std::uint64_t trace_len)
{
    std::string key;
    key.reserve(192 + 320 * cores.size());
    key.append("contest;bench=").append(bench).append(";");
    appendField(key, "seed=", seed);
    appendField(key, "len=", trace_len);
    appendField(key, "grb=", config.grbLatencyPs.count());
    appendField(key, "fifo=", config.fifoCapacity);
    appendField(key, "sq=", config.storeQueueCapacity);
    appendField(key, "inj=", static_cast<int>(config.injectionStyle));
    appendField(key, "early=", config.earlyBranchResolve ? 1 : 0);
    appendField(key, "park=", config.parkSaturatedLaggers ? 1 : 0);
    appendField(key, "exc=", config.syscallHandlerPs.count());
    appendField(key, "wd=", config.deadlockStuckTicks);
    appendField(key, "ncores=", cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
        key += '[';
        appendNum(key, i);
        key += ']';
        appendCoreConfig(key, cores[i]);
    }
    return key;
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    // The version participates in the digest, so a version bump
    // addresses different files; the header check below is the
    // guard against digest collisions and stale formats.
    char name[64];
    std::snprintf(name, sizeof(name), "%016llx.bin",
                  static_cast<unsigned long long>(fnv1a64(
                      std::to_string(formatVersion) + "|" + key)));
    return dir + "/" + name;
}

template <typename Parse>
bool
ResultCache::readEntry(const std::string &key, const char (&magic)[4],
                       Parse &&parse) const
{
    std::ifstream in(entryPath(key), std::ios::binary);
    std::ostringstream raw;
    if (in)
        raw << in.rdbuf();
    const std::string data = raw.str();

    // An absent file reads as empty and fails the magic check.
    const std::string_view want(magic, sizeof(magic));
    Reader r(data);
    bool ok = r.bytes(want.size()) == want
              && static_cast<int>(r.u64()) == formatVersion
              && r.bytes(r.u64()) == key && r.ok;
    if (ok) {
        parse(r);
        ok = r.ok && r.pos == data.size();
    }
    ++(ok ? hitCount : missCount);
    return ok;
}

template <typename Fill>
void
ResultCache::writeEntry(const std::string &key, const char (&magic)[4],
                        Fill &&fill) const
{
    Writer w;
    w.buf.append(magic, sizeof(magic));
    w.u64(static_cast<std::uint64_t>(formatVersion));
    w.u64(key.size());
    w.buf.append(key);
    fill(w);

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("result cache: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
        return;
    }
    // Write-then-rename so a concurrent reader (another process
    // sharing the cache directory) never sees a partial entry.
    if (writeEntryAtomic(entryPath(key), w.buf))
        ++storeCount;
}

bool
ResultCache::load(const std::string &key, SingleRunResult &result,
                  std::vector<TimePs> &regions) const
{
    SingleRunResult out;
    std::vector<TimePs> series;
    if (!readEntry(key, cacheMagic, [&](Reader &r) {
            out.timePs = TimePs{r.u64()};
            out.ipt = r.f64();
            readStats(r, out.stats);
            readEnergy(r, out.energy);
            series.resize(r.count());
            for (auto &t : series)
                t = TimePs{r.u64()};
        }))
        return false;
    result = out;
    regions = std::move(series);
    return true;
}

void
ResultCache::store(const std::string &key,
                   const SingleRunResult &result,
                   const std::vector<TimePs> &regions) const
{
    writeEntry(key, cacheMagic, [&](Writer &w) {
        w.u64(result.timePs.count());
        w.f64(result.ipt);
        writeStats(w, result.stats);
        writeEnergy(w, result.energy);
        w.u64(regions.size());
        for (TimePs t : regions)
            w.u64(t.count());
    });
}

bool
ResultCache::loadContest(const std::string &key,
                         ContestResult &result) const
{
    ContestResult out;
    if (!readEntry(key, contestMagic, [&](Reader &r) {
            out.timePs = TimePs{r.u64()};
            out.ipt = r.f64();
            const std::uint64_t cores = r.count();
            out.coreStats.resize(cores);
            out.unitStats.resize(cores);
            out.leadFraction.resize(cores);
            out.energy.resize(cores);
            for (auto &s : out.coreStats)
                readStats(r, s);
            for (auto &s : out.unitStats)
                readUnitStats(r, s);
            for (auto &f : out.leadFraction)
                f = r.f64();
            out.leadChanges = r.u64();
            out.mergedStores = StoreSeq{r.u64()};
            out.exceptionsHandled = r.u64();
            for (auto &e : out.energy)
                readEnergy(r, e);
        }))
        return false;
    result = std::move(out);
    return true;
}

void
ResultCache::storeContest(const std::string &key,
                          const ContestResult &result) const
{
    // The entry is only valid if every per-core array agrees on the
    // core count; a malformed result must not poison the cache.
    const std::size_t cores = result.coreStats.size();
    if (result.unitStats.size() != cores
        || result.leadFraction.size() != cores
        || result.energy.size() != cores) {
        warn("result cache: refusing to store a contest entry with "
             "mismatched per-core array sizes");
        return;
    }
    writeEntry(key, contestMagic, [&](Writer &w) {
        w.u64(result.timePs.count());
        w.f64(result.ipt);
        w.u64(cores);
        for (const auto &s : result.coreStats)
            writeStats(w, s);
        for (const auto &s : result.unitStats)
            writeUnitStats(w, s);
        for (double f : result.leadFraction)
            w.f64(f);
        w.u64(result.leadChanges);
        w.u64(result.mergedStores.count());
        w.u64(result.exceptionsHandled);
        for (const auto &e : result.energy)
            writeEnergy(w, e);
    });
}

} // namespace contest
