#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/log.hh"

namespace contest
{

std::uint64_t
envU64(const std::string &name, std::uint64_t def)
{
    const char *raw = std::getenv(name.c_str());
    if (raw == nullptr || *raw == '\0')
        return def;

    // Parse strictly: the whole value must be one non-negative
    // decimal integer that fits in 64 bits. strtoull alone is too
    // permissive — it silently accepts trailing garbage ("4abc"),
    // wraps negative values ("-1" becomes 2^64-1), and saturates on
    // overflow without telling the caller — so every malformed value
    // warns and falls back to the default instead of smuggling a
    // nonsense number into a knob like CONTEST_JOBS.
    const char *start = raw;
    while (std::isspace(static_cast<unsigned char>(*start)))
        ++start;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(start, &end, 10);
    const bool negative = *start == '-';
    const bool no_digits = end == start;
    const bool trailing = end != nullptr && *end != '\0';
    const bool overflow = errno == ERANGE;
    if (negative || no_digits || trailing || overflow) {
        warn("ignoring malformed %s='%s' (%s); using default %llu",
             name.c_str(), raw,
             negative    ? "negative"
             : no_digits ? "not a number"
             : trailing  ? "trailing garbage"
                         : "out of range",
             static_cast<unsigned long long>(def));
        return def;
    }
    return static_cast<std::uint64_t>(v);
}

bool
envFlag(const std::string &name)
{
    return envU64(name, 0) != 0;
}

std::uint64_t
benchTraceLen()
{
    return envU64("CONTEST_TRACE_LEN", 400'000);
}

bool
benchFastMode()
{
    return envFlag("CONTEST_FAST");
}

std::uint64_t
benchSeed()
{
    return envU64("CONTEST_SEED", 2009);
}

bool
simNoSkip()
{
    return envFlag("CONTEST_NO_SKIP");
}

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    std::uint64_t jobs = envU64("CONTEST_JOBS", hw > 0 ? hw : 1);
    if (jobs < 1)
        jobs = 1;
    if (jobs > 1024)
        jobs = 1024;
    return static_cast<unsigned>(jobs);
}

/** Strip `--<flag> V` / `--<flag>=V` from argv into @p env_name. */
static void
stripValueFlag(int *argc, char **argv, const char *flag,
               const char *env_name)
{
    const std::size_t n = std::strlen(flag);
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        if (std::strcmp(arg, flag) == 0 && i + 1 < *argc) {
            value = argv[++i];
        } else if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') {
            value = arg + n + 1;
        } else {
            argv[out++] = argv[i];
            continue;
        }
        setenv(env_name, value.c_str(), 1);
    }
    argv[out] = nullptr;
    *argc = out;
}

void
applyJobsFlag(int *argc, char **argv)
{
    stripValueFlag(argc, argv, "--jobs", "CONTEST_JOBS");
}

} // namespace contest
