#include "common/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/env.hh"

namespace contest
{

CommandLine::CommandLine(std::string program_, std::string synopsis_,
                         std::string about_)
    : program(std::move(program_)), synopsis(std::move(synopsis_)),
      about(std::move(about_))
{}

void
CommandLine::add(const char *name, const char *metavar, const char *help,
                 Setter set)
{
    options.push_back(Option{name, metavar, help, std::move(set), ""});
}

void
CommandLine::flag(const char *name, bool &on, const char *help)
{
    // The line passes no value; an environment variable passes one.
    add(name, "", help, [&on](const std::string &v) {
        std::uint64_t n = 1;
        std::string why = v.empty() ? "" : parseInteger(v, 0, ~0ull, n);
        if (why.empty())
            on = n != 0;
        return why;
    });
}

void
CommandLine::text(const char *name, const char *metavar,
                  std::string &value, const char *help)
{
    add(name, metavar, help, [&value](const std::string &v) {
        value = v;
        return std::string();
    });
}

void
CommandLine::number(const char *name, const char *metavar,
                    double &value, const char *help, double hi)
{
    add(name, metavar, help, [&value, hi](const std::string &v) {
        double x = 0.0;
        const char *why = nullptr;
        if (!parseNonNegative(v.c_str(), x, &why))
            return std::string(why);
        if (x > hi) {
            char bound[64];
            std::snprintf(bound, sizeof(bound), "above %g", hi);
            return std::string(bound);
        }
        value = x;
        return std::string();
    });
}

std::string
CommandLine::parseInteger(const std::string &text, std::uint64_t lo,
                          std::uint64_t hi, std::uint64_t &value)
{
    const char *why = nullptr;
    if (!parseU64(text.c_str(), value, &why))
        return why;
    if (value < lo)
        return "below " + std::to_string(lo);
    if (value > hi)
        return "above " + std::to_string(hi);
    return "";
}

CommandLine::Parsed
CommandLine::parse(const std::vector<std::string> &args)
{
    Parsed out;
    std::vector<bool> given(options.size(), false);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            out.help = true;
            return out;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            out.positionals.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        auto opt = std::find_if(
            options.begin(), options.end(),
            [&](const Option &o) { return o.name == name; });
        if (opt == options.end()) {
            out.error = name + ": unknown option";
            return out;
        }
        std::string value;
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            if (opt->metavar.empty()) {
                out.error = name + " '" + value + "': takes no value";
                return out;
            }
        } else if (!opt->metavar.empty()) {
            if (i + 1 == args.size()) {
                out.error = name + ": needs a value";
                return out;
            }
            value = args[++i];
        }
        const std::string why = opt->set(value);
        if (!why.empty()) {
            out.error = name + " '" + value + "': " + why;
            return out;
        }
        given[static_cast<std::size_t>(opt - options.begin())] = true;
    }
    for (std::size_t k = 0; k < options.size() && out.error.empty(); ++k) {
        const std::string &var = options[k].variable;
        const char *raw =
            given[k] || var.empty() ? nullptr : std::getenv(var.c_str());
        if (raw == nullptr || *raw == '\0')
            continue;
        if (const std::string why = options[k].set(raw); !why.empty())
            out.error = var + " '" + raw + "': " + why;
    }
    return out;
}

std::vector<std::string>
CommandLine::parse(int argc, char **argv)
{
    Parsed parsed = parse(std::vector<std::string>(argv + 1, argv + argc));
    if (parsed.help) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
    if (!parsed.error.empty())
        fail(parsed.error);
    return std::move(parsed.positionals);
}

void
CommandLine::fail(const std::string &why) const
{
    std::fprintf(stderr, "%s: %s\n%s", program.c_str(), why.c_str(),
                 usage().c_str());
    std::exit(2);
}

void
CommandLine::fail(const std::string &flag, const std::string &value,
                  const std::string &why) const
{
    fail(flag + " '" + value + "': " + why);
}

std::string
CommandLine::usage() const
{
    std::string out;
    std::string lead = "usage: ";
    std::istringstream forms(synopsis);
    for (std::string form; std::getline(forms, form); lead = "       ")
        out += lead + program + ' ' + form + '\n';
    if (!about.empty())
        out += '\n' + about + '\n';
    out += '\n';

    auto label = [](const Option &o) {
        return o.metavar.empty() ? o.name : o.name + ' ' + o.metavar;
    };
    const std::string help_label = "-h, --help";
    std::size_t width = help_label.size();
    for (const Option &o : options)
        width = std::max(width, label(o).size());
    auto line = [&](const std::string &lbl, const std::string &help) {
        // Continuation lines of a help text line up under its first.
        std::string text = help;
        for (std::size_t nl = text.find('\n'); nl != std::string::npos;
             nl = text.find('\n', nl + 1))
            text.insert(nl + 1, std::string(width + 4, ' '));
        out += "  " + lbl + std::string(width - lbl.size() + 2, ' ')
            + text + '\n';
    };
    for (const Option &o : options)
        line(label(o), o.variable.empty()
                           ? o.help
                           : o.help + " [env: " + o.variable + "]");
    line(help_label, "print this usage and exit");
    return out;
}

} // namespace contest
