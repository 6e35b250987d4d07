#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"

namespace contest
{

bool
parseU64(const char *text, std::uint64_t &value, const char **why)
{
    // strtoull alone is too permissive: it silently accepts trailing
    // garbage ("4abc"), wraps negative values ("-1" becomes
    // 2^64-1), and saturates on overflow without telling the caller.
    const char *start = text;
    while (std::isspace(static_cast<unsigned char>(*start)))
        ++start;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(start, &end, 10);
    const char *reason = *start == '-'     ? "negative"
                         : end == start    ? "not a number"
                         : *end != '\0'    ? "trailing garbage"
                         : errno == ERANGE ? "out of range"
                                           : nullptr;
    if (reason != nullptr) {
        if (why != nullptr)
            *why = reason;
        return false;
    }
    value = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseNonNegative(const char *text, double &value, const char **why)
{
    const char *start = text;
    while (std::isspace(static_cast<unsigned char>(*start)))
        ++start;
    char *end = nullptr;
    const double v = std::strtod(start, &end);
    const char *reason = *start == '-'       ? "negative"
                         : end == start      ? "not a number"
                         : *end != '\0'      ? "trailing garbage"
                         : !std::isfinite(v) ? "not finite"
                                             : nullptr;
    if (reason != nullptr) {
        if (why != nullptr)
            *why = reason;
        return false;
    }
    value = v;
    return true;
}

void
RunSettings::declare(CommandLine &cli)
{
    cli.integer("--trace-len", "N", traceLen,
                "trace length, N >= 20", minTraceLen);
    cli.defaultFrom("CONTEST_TRACE_LEN");
    cli.integer("--seed", "N", seed, "workload generation seed");
    cli.defaultFrom("CONTEST_SEED");
    cli.flag("--fast", fast, "shrink sweeps for a quick run");
    cli.defaultFrom("CONTEST_FAST");
    cli.integer("--jobs", "N", jobs,
                "simulations at once, 1-1024 (default: the\n"
                "hardware concurrency)",
                1, maxJobs);
    cli.defaultFrom("CONTEST_JOBS");
}

RunSettings
RunSettings::fromEnvironment()
{
    RunSettings run;
    CommandLine cli("contest", "");
    run.declare(cli);
    const std::string error = cli.parse(std::vector<std::string>()).error;
    fatal_if(!error.empty(), "bad run setting: %s", error.c_str());
    return run;
}

bool
simNoSkip()
{
    const char *raw = std::getenv("CONTEST_NO_SKIP");
    std::uint64_t on = 0;
    return raw != nullptr && parseU64(raw, on) && on != 0;
}

} // namespace contest
