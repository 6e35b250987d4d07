/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator (workload generation,
 * annealing moves, jitter in phase lengths) draws from an Rng seeded
 * explicitly by the caller, so a given seed reproduces a run bit for
 * bit across platforms. The generator is xoshiro256**, seeded through
 * splitmix64 as its authors recommend.
 */

#ifndef CONTEST_COMMON_RNG_HH
#define CONTEST_COMMON_RNG_HH

#include <array>
#include <cstdint>

#include "common/log.hh"

namespace contest
{

/** Deterministic, seedable xoshiro256** generator with helpers. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed) { reseed(seed); }

    /** Re-initialize the state from a new seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state)
            word = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below() with zero bound");
        // Lemire-style rejection to avoid modulo bias.
        std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in the inclusive range [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Rng::range() with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial that succeeds with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Pick an index in [0, weights.size()) with probability
     * proportional to the weights; total weight must be positive.
     */
    template <typename Container>
    std::size_t
    weighted(const Container &weights)
    {
        double total = 0.0;
        for (double w : weights)
            total += w;
        panic_if(total <= 0.0, "Rng::weighted() with non-positive total");
        double point = uniform() * total;
        std::size_t idx = 0;
        for (double w : weights) {
            if (point < w)
                return idx;
            point -= w;
            ++idx;
        }
        return weights.size() - 1;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::array<std::uint64_t, 4> state{};
};

} // namespace contest

#endif // CONTEST_COMMON_RNG_HH
