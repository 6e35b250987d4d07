#include "common/log.hh"

#include <cstdarg>
#include <cstdio>
#include <exception>
#include <vector>

namespace contest
{

namespace
{
LogLevel globalLevel = LogLevel::Warn;
} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

namespace detail
{

std::string
formatMsg(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (globalLevel >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (globalLevel >= LogLevel::Inform)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace contest
