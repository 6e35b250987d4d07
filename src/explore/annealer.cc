#include "explore/annealer.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/log.hh"

namespace contest
{

namespace
{

/** Integer log2 of a power of two. */
unsigned
ilog2(std::uint64_t x)
{
    unsigned n = 0;
    while (x > 1) {
        x >>= 1;
        ++n;
    }
    return n;
}

/** Pick the nearest entry of a menu not equal to current, stepping
 *  one position up or down. */
template <std::size_t N>
unsigned
stepMenu(const unsigned (&menu)[N], unsigned current, bool up)
{
    std::size_t idx = 0;
    for (std::size_t i = 0; i < N; ++i)
        if (menu[i] == current)
            idx = i;
    if (up && idx + 1 < N)
        ++idx;
    else if (!up && idx > 0)
        --idx;
    return menu[idx];
}

constexpr unsigned robMenu[] = {64, 128, 256, 512, 1024};
constexpr unsigned iqMenu[] = {16, 32, 64, 128};
constexpr unsigned lsqMenu[] = {32, 64, 128, 256};
constexpr unsigned setsMenu[] = {128, 256, 512, 1024, 2048, 4096,
                                 8192, 16384, 32768};
constexpr unsigned blockMenu[] = {8, 16, 32, 64, 128, 256, 512};
constexpr unsigned assocMenu[] = {1, 2, 4, 8, 16};

/**
 * Candidates proposed per round. The walk, and so Ablation G's
 * golden artifact, depends on it: another size walks another
 * trajectory from the same seed.
 */
constexpr std::uint64_t roundSize = 4;

} // namespace

void
applyTechnologyModel(CoreConfig &config)
{
    // Stylized 70nm timing model: the cycle-critical structures
    // (issue window, rename/bypass width) set the unpipelined delay,
    // and deeper scheduling / wakeup / front-end pipelining buys
    // frequency back. The palette configurations keep their
    // published periods; this model governs explored points only.
    double structural = 140.0 + 1.0 * config.iqSize
        + 2.5 * config.width * config.width
        + 6.0 * ilog2(config.robSize);
    double pipelining = 0.7 + 0.15 * static_cast<double>(config.schedDepth)
        + 0.25 * static_cast<double>(config.wakeupLatency)
        + 0.04 * config.frontEndDepth;
    double period = structural / pipelining;
    config.clockPeriodPs = static_cast<TimePs>(
        std::clamp(period, 150.0, 600.0));

    // Cache latency follows capacity (and a tax for associativity).
    auto cache_latency = [](const CacheConfig &c, unsigned floor) {
        double kb = static_cast<double>(c.capacityBytes()) / 1024.0;
        double lat = static_cast<double>(floor)
            + std::max(0.0, std::log2(kb / 16.0)) * 0.8
            + (c.assoc > 4 ? 1.0 : 0.0);
        return static_cast<Cycles>(std::max(1.0, std::round(lat)));
    };
    config.l1d.latency = cache_latency(config.l1d, 2);
    config.l2.latency = cache_latency(config.l2, 4) + 2;

    // Fixed ~55ns shared level, converted to this design's cycles.
    config.memAccessCycles = static_cast<Cycles>(
        55'000.0 / static_cast<double>(config.clockPeriodPs) + 0.5);

    config.l1dPorts = std::max(2u, (config.width + 1) / 2);
}

AnnealResult
annealCoreConfig(
    const std::function<double(const CoreConfig &)> &objective,
    const CoreConfig &start, const AnnealConfig &anneal_config)
{
    fatal_if(!objective, "annealCoreConfig needs an objective");

    Rng rng(anneal_config.seed);

    auto mutate = [&](CoreConfig cfg) {
        bool up = rng.chance(0.5);
        switch (rng.below(12)) {
          case 0:
            cfg.width = std::clamp<unsigned>(cfg.width + (up ? 1 : -1),
                                             2, 8);
            break;
          case 1:
            cfg.robSize = stepMenu(robMenu, cfg.robSize, up);
            break;
          case 2:
            cfg.iqSize = stepMenu(iqMenu, cfg.iqSize, up);
            break;
          case 3:
            cfg.lsqSize = stepMenu(lsqMenu, cfg.lsqSize, up);
            break;
          case 4:
            cfg.frontEndDepth = std::clamp<unsigned>(
                cfg.frontEndDepth + (up ? 1 : -1), 4, 12);
            break;
          case 5:
            cfg.schedDepth = up
                ? std::min(cfg.schedDepth + 1, Cycles{4})
                : std::max(cfg.schedDepth - 1, Cycles{1});
            break;
          case 6:
            cfg.wakeupLatency =
                up ? std::min(cfg.wakeupLatency + 1, Cycles{3})
                   : (cfg.wakeupLatency > Cycles{}
                          ? cfg.wakeupLatency - 1
                          : Cycles{});
            break;
          case 7:
            cfg.l1d.sets = stepMenu(setsMenu, cfg.l1d.sets, up);
            break;
          case 8:
            cfg.l1d.blockBytes =
                stepMenu(blockMenu, cfg.l1d.blockBytes, up);
            break;
          case 9:
            cfg.l1d.assoc = stepMenu(assocMenu, cfg.l1d.assoc, up);
            break;
          case 10:
            cfg.l2.sets = stepMenu(setsMenu, cfg.l2.sets, up);
            break;
          default:
            cfg.l2.blockBytes =
                stepMenu(blockMenu, cfg.l2.blockBytes, up);
            break;
        }
        cfg.iqSize = std::min(cfg.iqSize, cfg.robSize);
        applyTechnologyModel(cfg);
        cfg.validate();
        return cfg;
    };

    AnnealResult result;
    CoreConfig current = start;
    applyTechnologyModel(current);
    current.validate();
    double current_score = objective(current);
    result.best = current;
    result.bestScore = current_score;
    result.evaluations = 1;

    double temperature =
        anneal_config.initialTemperature * std::abs(current_score);
    if (temperature <= 0.0)
        temperature = anneal_config.initialTemperature;

    // Each round mutates its candidates from the current point and
    // draws an acceptance uniform for each, consuming the rng in the
    // same order however much of the round is read. The Metropolis
    // scan then scores the candidates in order and stops at the
    // first acceptance; the round's later candidates are never
    // scored.
    StepCount consumed{};
    std::vector<CoreConfig> candidates;
    std::vector<double> uniforms;
    while (consumed < anneal_config.steps) {
        std::uint64_t round = std::min<std::uint64_t>(
            roundSize, (anneal_config.steps - consumed).count());
        candidates.clear();
        uniforms.clear();
        for (std::uint64_t i = 0; i < round; ++i) {
            candidates.push_back(mutate(current));
            uniforms.push_back(rng.uniform());
        }
        result.evaluations += round;

        for (std::uint64_t i = 0; i < round; ++i) {
            ++consumed;
            double score = objective(candidates[i]);
            bool accept = score >= current_score;
            if (!accept && temperature > 0.0) {
                double p =
                    std::exp((score - current_score) / temperature);
                accept = uniforms[i] < p;
            }
            temperature *= anneal_config.coolingFactor;
            if (accept) {
                current = candidates[i];
                current_score = score;
                ++result.accepted;
                if (score > result.bestScore) {
                    result.bestScore = score;
                    result.best = current;
                }
                break;
            }
        }
    }
    return result;
}

} // namespace contest
