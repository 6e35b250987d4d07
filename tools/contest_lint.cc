/**
 * @file
 * contest_lint — the repo's static-analysis gate.
 *
 * Usage:
 *     contest_lint [--root <repo-root>] [--format human|json]
 *                  [paths...]
 *
 * Runs the line rules in lint_core.hh over the given paths (default:
 * src bench tests). Findings print as `file:line: rule: message` (or
 * a JSON array with --format=json, matched by
 * .github/contest-lint-matcher.json in CI), followed by a summary
 * with the wall-clock spent. Exit codes: 0 clean, 1 findings, 2 a bad
 * command line (common/cli.hh).
 * tests/lint_fixtures/ is skipped unless requested explicitly: it
 * holds intentionally-broken inputs for the linter's own tests.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "lint_core.hh"

namespace fs = std::filesystem;

namespace
{

bool
lintableFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".cc" || ext == ".cpp";
}

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t0 = std::chrono::steady_clock::now();

    std::string root = ".";
    std::string format = "human";
    contest::CommandLine cli("contest_lint",
                             "[--root DIR] [--format human|json] "
                             "[paths...]");
    cli.text("--root", "DIR", root, "repository root (default .)");
    cli.text("--format", "FMT", format,
             "human (file:line: rule: message) or json");
    std::vector<std::string> paths = cli.parse(argc, argv);
    if (format != "human" && format != "json")
        cli.fail("--format", format, "not human or json");
    if (paths.empty())
        paths = {"src", "bench", "tests"};

    std::size_t files = 0;
    std::vector<contest::lint::Violation> all;
    for (const auto &p : paths) {
        fs::path base = fs::path(root) / p;
        if (!fs::exists(base))
            cli.fail("no such path: " + base.string());
        std::vector<fs::path> targets;
        if (fs::is_regular_file(base)) {
            targets.push_back(base);
        } else {
            // Skip the linter's own intentionally-broken fixtures
            // unless they were requested explicitly.
            const bool fixtures_requested =
                base.string().find("lint_fixtures")
                != std::string::npos;
            for (const auto &e :
                 fs::recursive_directory_iterator(base)) {
                if (!e.is_regular_file() || !lintableFile(e.path()))
                    continue;
                if (!fixtures_requested
                    && e.path().string().find("lint_fixtures")
                           != std::string::npos)
                    continue;
                targets.push_back(e.path());
            }
        }
        for (const auto &t : targets) {
            ++files;
            std::string rel =
                fs::relative(t, root).generic_string();
            auto v = contest::lint::lintFile(rel, readFile(t));
            all.insert(all.end(), v.begin(), v.end());
        }
    }

    const auto t1 = std::chrono::steady_clock::now();
    const long ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t1
                                                              - t0)
            .count();

    if (format == "json") {
        contest::JsonValue findings = contest::JsonValue::array();
        for (const auto &v : all) {
            contest::JsonValue f = contest::JsonValue::object();
            f.set("file", contest::JsonValue::str(v.file));
            f.set("line", contest::JsonValue::number(
                              static_cast<double>(v.line)));
            f.set("rule", contest::JsonValue::str(v.rule));
            f.set("message", contest::JsonValue::str(v.message));
            findings.push(std::move(f));
        }
        std::printf("%s\n", findings.dump(2).c_str());
    } else {
        for (const auto &v : all)
            std::printf("%s:%zu: %s: %s\n", v.file.c_str(), v.line,
                        v.rule.c_str(), v.message.c_str());
        std::printf("contest_lint: %zu file(s), %zu finding(s), "
                    "%ld ms\n",
                    files, all.size(), ms);
    }

    return all.empty() ? 0 : 1;
}
