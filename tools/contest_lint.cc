/**
 * @file
 * contest_lint — the repo's static-analysis gate.
 *
 * Usage:
 *     contest_lint [--root <repo-root>] [--format=human|json]
 *                  [paths...]
 *
 * Runs the line rules in lint_core.hh over the given paths (default:
 * src bench tests). Findings print as `file:line: rule: message` (or
 * a JSON array with --format=json, matched by
 * .github/contest-lint-matcher.json in CI), followed by a summary
 * with the wall-clock spent. Exit codes: 0 clean, 1 findings, 2 bad
 * invocation.
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

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t0 = std::chrono::steady_clock::now();

    fs::path root = ".";
    std::vector<std::string> paths;
    std::string format = "human";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
            if (format != "human" && format != "json") {
                std::fprintf(stderr,
                             "contest_lint: unknown format '%s'\n",
                             format.c_str());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: contest_lint [--root <dir>] "
                        "[--format=human|json] [paths...]\n");
            return 0;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        paths = {"src", "bench", "tests"};

    std::size_t files = 0;
    std::vector<contest::lint::Violation> all;
    for (const auto &p : paths) {
        fs::path base = root / p;
        if (!fs::exists(base)) {
            std::fprintf(stderr, "contest_lint: no such path: %s\n",
                         base.string().c_str());
            return 2;
        }
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
        std::printf("[");
        for (std::size_t i = 0; i < all.size(); ++i) {
            const auto &v = all[i];
            std::printf(
                "%s\n  {\"file\": \"%s\", \"line\": %zu, "
                "\"rule\": \"%s\", \"message\": \"%s\"}",
                i ? "," : "", jsonEscape(v.file).c_str(), v.line,
                jsonEscape(v.rule).c_str(),
                jsonEscape(v.message).c_str());
        }
        std::printf("%s]\n", all.empty() ? "" : "\n");
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
