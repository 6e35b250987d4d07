/**
 * @file
 * The command-line parser of every program in the repository. A
 * program declares its options, each bound to a variable that holds
 * the option's default, and parse() fills them from argv and returns
 * the positional arguments in order. One set of rules for all:
 *
 * - an option is `--name V` or `--name=V`; a switch takes no value;
 * - options and positional arguments mix in any order;
 * - integers parse with parseU64 and numbers with parseNonNegative,
 *   each within the range its declaration gives;
 * - `--help` or `-h` prints the usage on stdout and exits 0;
 * - every other mistake, the program's own checks after parsing
 *   included (fail()), prints `<program>: <what>` and the usage on
 *   stderr and exits 2.
 */

#ifndef CONTEST_COMMON_CLI_HH
#define CONTEST_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace contest
{

/** One program's declared options, its usage text and its parser. */
class CommandLine
{
  public:
    /**
     * @param program the name that starts the usage and every message
     * @param synopsis what follows the name on the usage line; each
     *        further line (after a '\n') is another form of the command
     * @param about text printed between the usage lines and the options
     */
    CommandLine(std::string program, std::string synopsis,
                std::string about = "");

    /** A switch: its presence sets @p on. */
    void flag(const char *name, bool &on, const char *help);

    /** A free-form value such as a path. */
    void text(const char *name, const char *metavar, std::string &value,
              const char *help);

    /** An integer in [@p lo, @p hi]. */
    template <typename Int>
    void
    integer(const char *name, const char *metavar, Int &value,
            const char *help, std::uint64_t lo = 0,
            std::uint64_t hi = std::numeric_limits<Int>::max())
    {
        add(name, metavar, help, [&value, lo, hi](const std::string &v) {
            std::uint64_t n = 0;
            std::string why = parseInteger(v, lo, hi, n);
            if (why.empty())
                value = static_cast<Int>(n);
            return why;
        });
    }

    /** A finite number in [0, @p hi]. */
    void number(const char *name, const char *metavar, double &value,
                const char *help,
                double hi = std::numeric_limits<double>::max());

    /** What one command line holds. */
    struct Parsed
    {
        std::vector<std::string> positionals;
        bool help = false;  //!< `--help` or `-h` stopped the parse
        std::string error;  //!< what is wrong with the line, or empty
    };

    /**
     * Parse @p args (argv after the program name) into the declared
     * variables, stopping at `--help` or at the first mistake. Prints
     * nothing and never exits.
     */
    Parsed parse(const std::vector<std::string> &args);

    /**
     * Parse argv. `--help` prints the usage on stdout and exits 0; a
     * mistake fail()s. @return the positional arguments
     */
    std::vector<std::string> parse(int argc, char **argv);

    /** Print `<program>: @p why` and the usage on stderr; exit 2. */
    [[noreturn]] void fail(const std::string &why) const;

    /** fail() on @p flag's @p value. */
    [[noreturn]] void fail(const std::string &flag,
                           const std::string &value,
                           const std::string &why) const;

    /** The usage text, built from the declarations. */
    std::string usage() const;

  private:
    /** Store a value; returns why it is refused, or empty. */
    using Setter = std::function<std::string(const std::string &)>;

    struct Option
    {
        std::string name;
        std::string metavar; //!< empty for a switch
        std::string help;
        Setter set;
    };

    void add(const char *name, const char *metavar, const char *help,
             Setter set);

    /** @p text as an integer in [@p lo, @p hi]: why not, or empty. */
    static std::string parseInteger(const std::string &text,
                                    std::uint64_t lo, std::uint64_t hi,
                                    std::uint64_t &value);

    std::string program;
    std::string synopsis;
    std::string about;
    std::vector<Option> options;
};

} // namespace contest

#endif // CONTEST_COMMON_CLI_HH
