/**
 * @file
 * Fundamental scalar types shared by every module.
 *
 * The simulator measures global time in integer picoseconds, which is
 * finer than the paper's 0.01 ns (10 ps) handshake unit, so all of the
 * paper's clock periods (0.19 ns ... 0.49 ns) are exactly
 * representable.
 *
 * Time, cycle and stream-position quantities are *strong* types built
 * on the Strong<Tag, T> wrapper below rather than bare uint64_t
 * aliases. The wrapper admits only unit-correct arithmetic: adding a
 * picosecond timestamp to a cycle count is a compile error, and in
 * debug builds subtraction panics on unsigned wraparound instead of
 * silently producing a huge value (the bug class behind the original
 * SyncStoreQueue::canAccept and ResultFifo pop-counter defects). In
 * release builds (NDEBUG) every operation compiles down to the bare
 * integer op, so the wrapper is zero-overhead on the simulation hot
 * path.
 */

#ifndef CONTEST_COMMON_TYPES_HH
#define CONTEST_COMMON_TYPES_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>

#include "common/log.hh"

/** Debug builds check unsigned-wrap on strong-type subtraction. */
#ifndef NDEBUG
#define CONTEST_CHECKED_UNITS 1
#else
#define CONTEST_CHECKED_UNITS 0
#endif

namespace contest
{

/**
 * Zero-overhead strongly typed integer quantity.
 *
 * @tparam Tag an empty struct naming the unit; two Strong types with
 *         different tags do not mix in arithmetic or comparison.
 * @tparam T the underlying integer representation.
 *
 * Construction from raw integers is explicit; read the raw value back
 * with count() (or an explicit cast, e.g. for printf arguments).
 * Same-tag quantities add, subtract and compare; raw integral scalars
 * may scale or offset a quantity (q * 3, q + 1) without changing its
 * unit. Cross-unit conversions must be spelled out by the caller
 * (e.g. cyclesToPs below), which is the point of the exercise.
 */
template <typename Tag, typename T>
class Strong
{
    static_assert(std::is_integral_v<T>,
                  "Strong quantities wrap integer representations");

  public:
    using rep = T;

    /** Zero-valued quantity. */
    constexpr Strong() = default;

    /** Explicitly wrap a raw value. */
    template <typename U,
              std::enable_if_t<std::is_arithmetic_v<U>, int> = 0>
    constexpr explicit Strong(U raw) : v(static_cast<T>(raw))
    {}

    /** The raw underlying value. */
    constexpr T count() const { return v; }

    /** Explicit conversion to any arithmetic type (printf casts,
     *  double math, container indexing). */
    template <typename U,
              std::enable_if_t<std::is_arithmetic_v<U>, int> = 0>
    constexpr explicit operator U() const
    {
        return static_cast<U>(v);
    }

    /** Largest representable quantity (sentinel for "never"). */
    static constexpr Strong
    max()
    {
        return Strong{std::numeric_limits<T>::max()};
    }

    /** @name Same-unit comparison */
    /** @{ */
    friend constexpr bool
    operator==(Strong a, Strong b) { return a.v == b.v; }
    friend constexpr bool
    operator!=(Strong a, Strong b) { return a.v != b.v; }
    friend constexpr bool
    operator<(Strong a, Strong b) { return a.v < b.v; }
    friend constexpr bool
    operator<=(Strong a, Strong b) { return a.v <= b.v; }
    friend constexpr bool
    operator>(Strong a, Strong b) { return a.v > b.v; }
    friend constexpr bool
    operator>=(Strong a, Strong b) { return a.v >= b.v; }
    /** @} */

    /** @name Comparison against raw (unitless) integrals
     *
     * Comparing a quantity with a raw literal (q == 0, q < cap) is
     * unit-safe in the same way scalar offsetting is; comparing two
     * quantities of *different* units remains a compile error.
     */
    /** @{ */
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator==(Strong a, U raw) { return a.v == static_cast<T>(raw); }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator==(U raw, Strong a) { return a == raw; }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator!=(Strong a, U raw) { return !(a == raw); }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator!=(U raw, Strong a) { return !(a == raw); }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator<(Strong a, U raw) { return a.v < static_cast<T>(raw); }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator<(U raw, Strong a) { return static_cast<T>(raw) < a.v; }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator<=(Strong a, U raw) { return a.v <= static_cast<T>(raw); }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator<=(U raw, Strong a) { return static_cast<T>(raw) <= a.v; }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator>(Strong a, U raw) { return a.v > static_cast<T>(raw); }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator>(U raw, Strong a) { return static_cast<T>(raw) > a.v; }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator>=(Strong a, U raw) { return a.v >= static_cast<T>(raw); }
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr bool
    operator>=(U raw, Strong a) { return static_cast<T>(raw) >= a.v; }
    /** @} */

    /** @name Same-unit arithmetic */
    /** @{ */
    friend constexpr Strong
    operator+(Strong a, Strong b) { return Strong{a.v + b.v}; }

    /** Subtraction; debug builds panic on unsigned wraparound
     *  instead of silently wrapping. */
    friend constexpr Strong
    operator-(Strong a, Strong b)
    {
#if CONTEST_CHECKED_UNITS
        if (std::is_unsigned_v<T> && b.v > a.v)
            panic("strong-type underflow: %llu - %llu wraps below "
                  "zero (mixed or stale counters?)",
                  static_cast<unsigned long long>(a.v),
                  static_cast<unsigned long long>(b.v));
#endif
        return Strong{a.v - b.v};
    }

    constexpr Strong &
    operator+=(Strong other)
    {
        v += other.v;
        return *this;
    }

    constexpr Strong &
    operator-=(Strong other)
    {
        *this = *this - other;
        return *this;
    }

    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    constexpr Strong &
    operator+=(U raw)
    {
        return *this += Strong{raw};
    }

    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    constexpr Strong &
    operator-=(U raw)
    {
        return *this -= Strong{raw};
    }

    constexpr Strong &
    operator++()
    {
        ++v;
        return *this;
    }

    constexpr Strong
    operator++(int)
    {
        Strong old = *this;
        ++v;
        return old;
    }

    constexpr Strong &
    operator--()
    {
        *this = *this - Strong{1};
        return *this;
    }

    constexpr Strong
    operator--(int)
    {
        Strong old = *this;
        --*this;
        return old;
    }
    /** @} */

    /** @name Scaling and offsetting by raw (unitless) integers */
    /** @{ */
    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr Strong
    operator+(Strong a, U raw)
    {
        return a + Strong{raw};
    }

    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr Strong
    operator+(U raw, Strong a)
    {
        return a + Strong{raw};
    }

    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr Strong
    operator-(Strong a, U raw)
    {
        return a - Strong{raw};
    }

    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr Strong
    operator*(Strong a, U raw)
    {
        return Strong{a.v * static_cast<T>(raw)};
    }

    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr Strong
    operator*(U raw, Strong a)
    {
        return Strong{static_cast<T>(raw) * a.v};
    }

    template <typename U,
              std::enable_if_t<std::is_integral_v<U>, int> = 0>
    friend constexpr Strong
    operator/(Strong a, U raw)
    {
        return Strong{a.v / static_cast<T>(raw)};
    }

    /** Ratio of two same-unit quantities is a raw number. */
    friend constexpr T
    operator/(Strong a, Strong b) { return a.v / b.v; }
    /** @} */

  private:
    T v{};
};

/** Global simulated time in picoseconds. */
using TimePs = Strong<struct TimePsTag, std::uint64_t>;

/** Core-local time in cycles of that core's clock. */
using Cycles = Strong<struct CyclesTag, std::uint64_t>;

/** Position in the dynamic (retired) instruction stream, 0-based. */
using InstSeq = Strong<struct InstSeqTag, std::uint64_t>;

/** Position in the dynamic store stream (performed / merged store
 *  counters of the synchronizing store queue), 0-based. */
using StoreSeq = Strong<struct StoreSeqTag, std::uint64_t>;

/** Lifetime lookup count of a predictor structure. */
using LookupCount = Strong<struct LookupCountTag, std::uint64_t>;

/** Number of annealing steps (neighbor evaluations). */
using StepCount = Strong<struct StepCountTag, std::uint64_t>;

/** Byte address in the simulated flat address space. */
using Addr = std::uint64_t;

/** Architectural register index. */
using RegId = std::uint16_t;

/** Identifier of a core within a contesting system or CMP. */
using CoreId = std::uint32_t;

/** Picoseconds per nanosecond, for IPT conversions. */
constexpr std::uint64_t psPerNs = 1000;

/** Convert a cycle count to picoseconds at the given clock period.
 *  The only sanctioned way to cross the Cycles -> TimePs unit
 *  boundary. */
inline constexpr TimePs
cyclesToPs(Cycles cycles, TimePs clock_period)
{
    return TimePs{cycles.count() * clock_period.count()};
}

/**
 * Instructions per nanosecond ("instructions per time", IPT) — the
 * performance metric used throughout the paper.
 *
 * @param retired number of retired instructions
 * @param elapsed elapsed simulated time in picoseconds
 * @return IPT; 0.0 when no time has elapsed
 */
inline double
instPerNs(InstSeq retired, TimePs elapsed)
{
    if (elapsed == TimePs{})
        return 0.0;
    return static_cast<double>(retired.count())
        * static_cast<double>(psPerNs)
        / static_cast<double>(elapsed.count());
}

} // namespace contest

/** Strong quantities hash like their raw representation (for
 *  unordered containers keyed by stream position or timestamp). */
template <typename Tag, typename T>
struct std::hash<contest::Strong<Tag, T>>
{
    std::size_t
    operator()(const contest::Strong<Tag, T> &s) const noexcept
    {
        return std::hash<T>{}(s.count());
    }
};

#endif // CONTEST_COMMON_TYPES_HH
