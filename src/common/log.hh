/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so the failure is debuggable.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits with an
 *            error code.
 * warn()   — something is modeled approximately; simulation continues.
 * inform() — normal operating status.
 */

#ifndef CONTEST_COMMON_LOG_HH
#define CONTEST_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace contest
{

/** Verbosity levels for runtime filtering of status messages. */
enum class LogLevel { Silent, Warn, Inform, Debug };

/** Override the process-wide log level (Warn by default, so tests
 *  stay quiet). */
void setLogLevel(LogLevel level);

namespace detail
{
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
std::string formatMsg(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
} // namespace detail

} // namespace contest

/** Abort with a message: an internal simulator bug was detected. */
#define panic(...)                                                     \
    ::contest::detail::panicImpl(                                      \
        __FILE__, __LINE__, ::contest::detail::formatMsg(__VA_ARGS__))

/** Exit with a message: the user supplied an impossible configuration. */
#define fatal(...)                                                     \
    ::contest::detail::fatalImpl(                                      \
        __FILE__, __LINE__, ::contest::detail::formatMsg(__VA_ARGS__))

/** Emit a warning about approximate or suspicious behaviour. */
#define warn(...)                                                      \
    ::contest::detail::warnImpl(::contest::detail::formatMsg(__VA_ARGS__))

/** Emit an informational status message. */
#define inform(...)                                                    \
    ::contest::detail::informImpl(                                     \
        ::contest::detail::formatMsg(__VA_ARGS__))

/** panic() unless the given simulator invariant holds. */
#define panic_if(cond, ...)                                            \
    do {                                                               \
        if (cond)                                                      \
            panic(__VA_ARGS__);                                        \
    } while (0)

/** fatal() unless the given user-facing precondition holds. */
#define fatal_if(cond, ...)                                            \
    do {                                                               \
        if (cond)                                                      \
            fatal(__VA_ARGS__);                                        \
    } while (0)

#endif // CONTEST_COMMON_LOG_HH
