/**
 * @file
 * Figures of merit for heterogeneous CMP design (paper Section 6.1).
 *
 * Given the IPT of every benchmark on every core type, a figure of
 * merit scores a candidate set of core types under the assumption
 * that each benchmark runs on the most suitable core in the set:
 *
 *  - avg     arithmetic-mean IPT: raw throughput, robust to unknown
 *            benchmark frequencies
 *  - har     harmonic-mean IPT: minimizes total time of a one-by-one
 *            benchmark submission
 *  - cw-har  contention-weighted harmonic-mean IPT: divides each
 *            benchmark's IPT by the number of benchmarks sharing its
 *            preferred core type (Little's-law queueing under heavy
 *            load), then takes the harmonic mean
 *
 * Every benchmark counts once: the job mix is uniform (DESIGN.md §5).
 */

#ifndef CONTEST_EXPLORE_MERIT_HH
#define CONTEST_EXPLORE_MERIT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace contest
{

/** IPT of every benchmark (row) on every core type (column). */
struct IptMatrix
{
    std::vector<std::string> benchNames;
    std::vector<std::string> coreNames;
    /** ipt[b][c] = IPT of benchmark b on core type c. */
    std::vector<std::vector<double>> ipt;

    /** Number of benchmarks. */
    std::size_t numBenches() const { return benchNames.size(); }

    /** Number of core types. */
    std::size_t numCores() const { return coreNames.size(); }

    /** Column index of a core type by name; fatal() if unknown. */
    std::size_t coreIndex(const std::string &name) const;

    /** Row index of a benchmark by name; fatal() if unknown. */
    std::size_t benchIndex(const std::string &name) const;

    /** Sanity-check shape consistency; fatal() on mismatch. */
    void validate() const;
};

/** The three figures of merit from Section 6.1. */
enum class Merit { Avg, Har, CwHar };

/** Human-readable merit name ("avg", "har", "cw-har"). */
const char *meritName(Merit merit);

/**
 * Index of the most suitable core for benchmark @p bench within the
 * candidate set @p cores (ties to the earlier entry).
 */
std::size_t bestCoreFor(const IptMatrix &matrix, std::size_t bench,
                        const std::vector<std::size_t> &cores);

/** IPT of each benchmark on its best core within the set. */
std::vector<double>
bestIpts(const IptMatrix &matrix,
         const std::vector<std::size_t> &cores);

/** Score the candidate core set under the given figure of merit. */
double scoreCmp(const IptMatrix &matrix,
                const std::vector<std::size_t> &cores, Merit merit);

} // namespace contest

#endif // CONTEST_EXPLORE_MERIT_HH
