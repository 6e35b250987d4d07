/**
 * @file
 * Golden-artifact comparison gate. Compares candidate experiment
 * artifacts (JSON files emitted by contest_bench --out-dir) against
 * committed goldens, field-by-field under a numeric tolerance.
 *
 * Usage:
 *   artifact_diff [--rtol X] [--atol Y] GOLDEN CANDIDATE
 *
 * GOLDEN and CANDIDATE are either two JSON files or two directories;
 * for directories every *.json in GOLDEN must exist in CANDIDATE and
 * match. Exit status: 0 all match, 1 differences found, 2 a bad
 * command line (common/cli.hh) or an I/O error.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "harness/artifact.hh"

namespace fs = std::filesystem;

namespace
{

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Load one artifact JSON file; returns false (with a message on
 *  stderr) on I/O, parse, or schema failure. */
bool
loadArtifact(const fs::path &path, contest::FigureArtifact &art)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "artifact_diff: cannot read %s\n",
                     path.string().c_str());
        return false;
    }
    std::string error;
    contest::JsonValue v = contest::JsonValue::parse(text, &error);
    if (v.isNull() && !error.empty()) {
        std::fprintf(stderr, "artifact_diff: %s: %s\n",
                     path.string().c_str(), error.c_str());
        return false;
    }
    art = contest::FigureArtifact::fromJson(v, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "artifact_diff: %s: %s\n",
                     path.string().c_str(), error.c_str());
        return false;
    }
    return true;
}

/** Compare one golden/candidate file pair; prints each difference.
 *  @return number of differences, or -1 on load failure */
int
diffFiles(const fs::path &golden_path, const fs::path &cand_path,
          const contest::ArtifactTolerance &tol)
{
    contest::FigureArtifact golden;
    contest::FigureArtifact cand;
    if (!loadArtifact(golden_path, golden)
        || !loadArtifact(cand_path, cand))
        return -1;

    auto diffs = contest::diffArtifacts(golden, cand, tol);
    for (const auto &d : diffs)
        std::printf("%s: %s\n", golden_path.filename().string().c_str(),
                    d.c_str());
    return static_cast<int>(diffs.size());
}

} // namespace

int
main(int argc, char **argv)
{
    contest::ArtifactTolerance tol;
    contest::CommandLine cli(
        "artifact_diff", "[--rtol X] [--atol Y] GOLDEN CANDIDATE",
        "Compare experiment artifacts field-by-field. GOLDEN and\n"
        "CANDIDATE are two artifact JSON files, or two directories\n"
        "(every *.json in GOLDEN must exist and match in CANDIDATE).\n"
        "Numeric fields compare under |g - c| <= atol + rtol * |g|;\n"
        "labels compare exactly.\n"
        "Exit: 0 match, 1 differences, 2 usage/IO error.");
    cli.number("--rtol", "X", tol.rtol, "relative tolerance (default 1e-6)");
    cli.number("--atol", "Y", tol.atol, "absolute tolerance (default 1e-9)");
    const std::vector<std::string> paths = cli.parse(argc, argv);
    if (paths.size() != 2)
        cli.fail("needs GOLDEN and CANDIDATE");

    fs::path golden{paths[0]};
    fs::path cand{paths[1]};
    std::error_code ec;
    bool golden_dir = fs::is_directory(golden, ec);
    bool cand_dir = fs::is_directory(cand, ec);
    if (golden_dir != cand_dir) {
        std::fprintf(stderr,
                     "artifact_diff: %s and %s must both be files or "
                     "both directories\n",
                     golden.string().c_str(), cand.string().c_str());
        return 2;
    }

    int total = 0;
    std::size_t compared = 0;
    if (!golden_dir) {
        int n = diffFiles(golden, cand, tol);
        if (n < 0)
            return 2;
        total = n;
        compared = 1;
    } else {
        std::vector<fs::path> goldens;
        for (const auto &entry : fs::directory_iterator(golden, ec)) {
            // SimTimeline.json is the suite's wall-clock timeline
            // export, not a FigureArtifact; skip it when an --out-dir
            // is compared directly against another run's.
            if (entry.path().extension() == ".json"
                && entry.path().filename() != "SimTimeline.json")
                goldens.push_back(entry.path());
        }
        if (ec) {
            std::fprintf(stderr, "artifact_diff: cannot list %s\n",
                         golden.string().c_str());
            return 2;
        }
        std::sort(goldens.begin(), goldens.end());
        if (goldens.empty()) {
            std::fprintf(stderr,
                         "artifact_diff: no *.json goldens in %s\n",
                         golden.string().c_str());
            return 2;
        }
        for (const auto &g : goldens) {
            fs::path c = cand / g.filename();
            if (!fs::exists(c, ec)) {
                std::printf("%s: missing from candidate dir %s\n",
                            g.filename().string().c_str(),
                            cand.string().c_str());
                ++total;
                continue;
            }
            int n = diffFiles(g, c, tol);
            if (n < 0)
                return 2;
            total += n;
            ++compared;
        }
    }

    if (total == 0) {
        std::printf("artifact_diff: %zu artifact(s) match "
                    "(rtol=%g atol=%g)\n",
                    compared, tol.rtol, tol.atol);
        return 0;
    }
    std::printf("artifact_diff: %d difference(s) across %zu "
                "artifact(s)\n",
                total, compared);
    return 1;
}
