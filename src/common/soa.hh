/**
 * @file
 * Structure-of-arrays building blocks for the hot simulation loops
 * (DESIGN.md §12): a cacheline-aligned vector, uint64 bit-mask word
 * helpers with find-first-set scanning, and power-of-two rounding for
 * ring geometries.
 *
 * The simulator's per-cycle state (ROB, issue queue, fetch queue,
 * predictor tables) is stored as parallel field arrays indexed by
 * ring position instead of arrays of structs. Each array starts on
 * its own cacheline so two hot arrays never false-share a line, and
 * per-entry booleans become one bit in a mask word so a whole
 * dependence wave is tested with a single load.
 */

#ifndef CONTEST_COMMON_SOA_HH
#define CONTEST_COMMON_SOA_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "common/log.hh"

namespace contest
{

/** Allocator placing every block on a 64-byte (cacheline) boundary,
 *  so each SoA field array starts on its own line. */
template <typename T>
class CachelineAllocator
{
  public:
    using value_type = T;
    static constexpr std::align_val_t alignment{64};

    CachelineAllocator() = default;
    template <typename U>
    CachelineAllocator(const CachelineAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_alloc();
        return static_cast<T *>(
            ::operator new(n * sizeof(T), alignment));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, alignment);
    }

    template <typename U>
    bool
    operator==(const CachelineAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A field array of the SoA layout: contiguous, cacheline-aligned. */
template <typename T>
using SoaVec = std::vector<T, CachelineAllocator<T>>;

/** Smallest power of two >= @p n (n must be nonzero and
 *  representable). Ring capacities are rounded up with this so the
 *  position of an entry is a single mask of its sequence number. */
constexpr std::size_t
nextPow2(std::size_t n)
{
    return std::size_t{1} << std::bit_width(n - 1);
}

/** @name Mask-word helpers
 *
 * A bitset spread over uint64 words, bit i of the set living in
 * word i/64. Callers own sizing (maskWords()) and clearing.
 */
/** @{ */

/** Words needed for @p bits mask bits. */
constexpr std::size_t
maskWords(std::size_t bits)
{
    return (bits + 63) / 64;
}

inline bool
bitTest(const SoaVec<std::uint64_t> &w, std::size_t i)
{
    return (w[i >> 6] >> (i & 63)) & 1;
}

inline void
bitSet(SoaVec<std::uint64_t> &w, std::size_t i)
{
    w[i >> 6] |= std::uint64_t{1} << (i & 63);
}

inline void
bitClear(SoaVec<std::uint64_t> &w, std::size_t i)
{
    w[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

/**
 * Invoke @p fn(position) for every set bit of @p w at positions in
 * [begin, end), ascending (find-first-set order). @p fn returns
 * false to stop the scan early; the function then returns false.
 *
 * The scan snapshots one word at a time, so @p fn may clear bits at
 * or below the position it is handed without disturbing the
 * iteration; it must not set bits above it and expect them seen.
 */
template <typename Fn>
inline bool
scanBits(const SoaVec<std::uint64_t> &w, std::size_t begin,
         std::size_t end, Fn &&fn)
{
    if (begin >= end)
        return true;
    const std::size_t w_end = (end + 63) >> 6;
    for (std::size_t wi = begin >> 6; wi < w_end; ++wi) {
        std::uint64_t word = w[wi];
        const std::size_t base = wi << 6;
        if (base < begin)
            word &= ~std::uint64_t{0} << (begin - base);
        if ((end - base) < 64)
            word &= (std::uint64_t{1} << (end - base)) - 1;
        while (word) {
            const int b = std::countr_zero(word);
            word &= word - 1;
            if (!fn(base + static_cast<std::size_t>(b)))
                return false;
        }
    }
    return true;
}

/** @} */

} // namespace contest

#endif // CONTEST_COMMON_SOA_HH
