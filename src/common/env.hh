/**
 * @file
 * The settings of a run, the environment variables behind their
 * defaults, and the strict number parsers every command line uses.
 */

#ifndef CONTEST_COMMON_ENV_HH
#define CONTEST_COMMON_ENV_HH

#include <algorithm>
#include <cstdint>
#include <thread>

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

class CommandLine;

/**
 * What a run of the experiments depends on. declare() gives each
 * field an option whose default is a CONTEST_* variable; the variable
 * passes the option's checks, so a bad one is a usage error as a bad
 * flag is (common/cli.hh). Results are bit-identical for any jobs.
 */
struct RunSettings
{
    /** The Runner's shortest trace: one RegionLog region. */
    static constexpr std::uint64_t minTraceLen = 20;
    static constexpr unsigned maxJobs = 1024;

    /** --trace-len, CONTEST_TRACE_LEN: instructions per trace. */
    std::uint64_t traceLen = 400'000;
    /** --seed, CONTEST_SEED: workload seed, the paper's year. */
    std::uint64_t seed = 2009;
    /** --fast, CONTEST_FAST: shrink sweeps for a quick run. */
    bool fast = false;
    /** --jobs, CONTEST_JOBS: simulations at once. */
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());

    /** Declare the four options on @p cli, bound to these fields. */
    void declare(CommandLine &cli);

    /** The variables alone; fatal() on a bad one. Only what
     *  perfbench/probe.cc calls still reads them this way. */
    static RunSettings fromEnvironment();
};

/**
 * Whether CONTEST_NO_SKIP, a non-zero integer, disables idle-cycle
 * skipping: the reference mode for debugging the event-driven
 * scheduler, which steps every core cycle by cycle. Results are
 * bit-identical either way. Read at every run, so tests can toggle
 * it between otherwise identical runs.
 */
bool simNoSkip();

} // namespace contest

#endif // CONTEST_COMMON_ENV_HH
