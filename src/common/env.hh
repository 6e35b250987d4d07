/**
 * @file
 * Environment-variable knobs shared by the bench binaries.
 *
 * CONTEST_TRACE_LEN — instructions per benchmark trace (default 400k).
 * CONTEST_FAST      — when set to a non-zero value, shrinks parameter
 *                     sweeps so the whole bench suite completes
 *                     quickly (used by CI-style runs).
 * CONTEST_SEED      — base seed for workload generation (default 2009,
 *                     the paper's publication year).
 * CONTEST_JOBS      — concurrency of the parallel experiment harness
 *                     (default: the hardware concurrency). 1 runs
 *                     everything serially. Results are bit-identical
 *                     for every value.
 * CONTEST_NO_SKIP   — when set to a non-zero value, disables the
 *                     idle-cycle fast-forward and steps every core
 *                     cycle-by-cycle. The reference mode for
 *                     debugging the event-driven scheduler; results
 *                     are bit-identical either way.
 *
 * All integer knobs parse strictly (parseU64): a malformed value
 * (trailing garbage, negative, overflow) warns and falls back to the
 * default. The command-line flags that set them (contest_bench's and
 * contest_serve's --trace-len, --seed and --jobs) reject a malformed
 * value with the usage instead.
 */

#ifndef CONTEST_COMMON_ENV_HH
#define CONTEST_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace contest
{

/**
 * Parse @p text strictly as one non-negative decimal integer that
 * fits in 64 bits; leading whitespace is allowed. On a malformed
 * value (trailing garbage, negative, no digits, overflow) returns
 * false, leaves @p value alone and, when @p why is non-null, points
 * it at a short reason.
 */
bool parseU64(const char *text, std::uint64_t &value,
              const char **why = nullptr);

/**
 * Parse @p text strictly as one finite, non-negative decimal number
 * (strtod syntax); leading whitespace is allowed. On a malformed
 * value (trailing garbage, a minus sign, no digits, infinity, NaN,
 * overflow) returns false, leaves @p value alone and, when @p why is
 * non-null, points it at a short reason.
 */
bool parseNonNegative(const char *text, double &value,
                      const char **why = nullptr);

/** Read an unsigned integer env var, falling back to a default. */
std::uint64_t envU64(const std::string &name, std::uint64_t def);

/** Read a boolean (non-zero integer) env var. */
bool envFlag(const std::string &name);

/** Instructions per benchmark trace for bench binaries. */
std::uint64_t benchTraceLen();

/** Whether to shrink sweeps for a quick run. */
bool benchFastMode();

/** Base seed for deterministic workload generation. */
std::uint64_t benchSeed();

/**
 * Whether idle-cycle skipping is disabled (CONTEST_NO_SKIP). Read
 * at every run so tests can toggle the mode with setenv between
 * otherwise identical runs.
 */
bool simNoSkip();

/**
 * Concurrency for parallel experiment sweeps: CONTEST_JOBS, falling
 * back to the hardware concurrency. Always at least 1.
 */
unsigned defaultJobs();

} // namespace contest

#endif // CONTEST_COMMON_ENV_HH
