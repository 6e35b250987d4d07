/**
 * @file
 * Structured experiment artifacts. Every registered experiment emits
 * one FigureArtifact — its tables (each cell carrying both the
 * rendered text and, where applicable, the underlying number),
 * summary scalars, free-text notes, and run metadata. One renderer
 * turns the artifact into the familiar stdout figure, one writer
 * serializes it to JSON for the golden regression gate, and
 * diffArtifacts() compares two artifacts field-by-field under a
 * numeric tolerance policy.
 */

#ifndef CONTEST_HARNESS_ARTIFACT_HH
#define CONTEST_HARNESS_ARTIFACT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"

namespace contest
{

/** One table cell: rendered text plus the number it was formatted
 *  from (when the cell is a measurement rather than a label). */
struct ArtifactCell
{
    std::string text;
    bool numeric = false;
    double value = 0.0;
};

/** A label cell. */
ArtifactCell cellText(std::string text);

/** A numeric cell rendered like TextTable::num. */
ArtifactCell cellNum(double value, int precision = 2);

/** A numeric cell rendered like TextTable::pct (value stays the
 *  raw fraction, e.g. 0.153 for "+15.3%"). */
ArtifactCell cellPct(double fraction, int precision = 1);

/** A numeric cell holding an integral count. */
ArtifactCell cellCount(std::uint64_t count);

/** A numeric cell with caller-provided rendering. */
ArtifactCell cellCustom(double value, std::string text);

/** One titled table of an artifact. */
struct ArtifactTable
{
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<ArtifactCell>> rows;

    /** Append a row; fatal() when the width mismatches columns. */
    void row(std::vector<ArtifactCell> cells);

    /** Render in the TextTable format. */
    std::string renderText() const;
};

/** Run metadata stamped on every artifact. */
struct ArtifactMeta
{
    /** Bumped whenever artifact semantics change incompatibly. */
    static constexpr int currentSchema = 1;

    int schema = currentSchema;
    std::uint64_t traceLen = 0;
    std::uint64_t seed = 0;
    unsigned jobs = 1;
    bool fast = false;
    /** Hardware threads on the producing machine (0 = unknown);
     *  informational only (never compared): with `jobs`, it tells
     *  how much parallelism the run could actually use. */
    unsigned cpus = 0;
    /** `git describe --always --dirty` of the producing tree;
     *  informational only (never compared). */
    std::string git;

    ArtifactMeta() = default;
    /** The meta of a run under @p run, on this host and tree. */
    explicit ArtifactMeta(const RunSettings &run);
};

/** Structured output of one experiment. */
struct FigureArtifact
{
    FigureArtifact() = default;
    FigureArtifact(std::string experiment_name,
                   std::string experiment_title,
                   ArtifactMeta run_meta = {})
        : name(std::move(experiment_name)),
          title(std::move(experiment_title)),
          meta(std::move(run_meta))
    {}

    std::string name;  //!< registry name, e.g. "fig06"
    std::string title; //!< human title, e.g. "Figure 6: ..."
    ArtifactMeta meta;
    std::vector<ArtifactTable> tables;
    /** Named summary measurements, in insertion order. */
    std::vector<std::pair<std::string, double>> scalars;
    /** Commentary paragraphs (rendered, never diffed: they embed
     *  wall-clock times and pre-formatted numbers). */
    std::vector<std::string> notes;

    /** Start a new table and return it for filling. */
    ArtifactTable &table(std::string table_title);

    /** Record a named summary scalar; fatal() on duplicate name. */
    void scalar(const std::string &scalar_name, double value);

    /** Append a commentary paragraph. */
    void note(std::string text);

    /** The full stdout rendering: preamble, tables, notes. */
    std::string renderText() const;

    JsonValue toJson() const;

    /**
     * Rebuild from JSON. On structural failure returns an empty
     * artifact and stores a message in @p error.
     */
    static FigureArtifact fromJson(const JsonValue &v,
                                   std::string *error);
};

/** Numeric tolerance policy for golden comparison. */
struct ArtifactTolerance
{
    double rtol = 1e-6;
    double atol = 1e-9;

    /** Do two measurements agree under this policy? Any non-finite
     *  value (NaN or ±Inf) on either side is a hard failure: an
     *  infinite golden would otherwise make the rtol bound infinite
     *  and wave every candidate through. */
    bool close(double golden, double candidate) const;
};

/**
 * Field-by-field comparison of a candidate artifact against a
 * golden one: schema/trace-length/seed/fast metadata, scalar set
 * and values, table titles/columns/shape, and every cell (numeric
 * cells under the tolerance, label cells exactly). meta.jobs,
 * meta.git and the notes are informational and never compared.
 *
 * @return one human-readable line per difference; empty means equal
 */
std::vector<std::string>
diffArtifacts(const FigureArtifact &golden,
              const FigureArtifact &candidate,
              const ArtifactTolerance &tol = {});

/**
 * Where emitted artifacts go: always rendered to stdout (unless
 * muted), and written as `<out_dir>/<name>.json` when an output
 * directory is configured.
 */
class ArtifactSink
{
  public:
    /**
     * @param out_dir directory for JSON artifacts (created on first
     *        write); empty disables file output
     * @param echo render each artifact to stdout
     */
    explicit ArtifactSink(std::string out_dir = "", bool echo = true);

    /** Render and (when configured) persist one artifact. */
    void emit(const FigureArtifact &artifact);

    /** Paths written so far. */
    const std::vector<std::string> &writtenFiles() const
    {
        return files;
    }

    /** Every artifact emitted through this sink (test hook). */
    const std::vector<FigureArtifact> &emitted() const
    {
        return kept;
    }

  private:
    std::string dir;
    bool echoStdout;
    std::vector<std::string> files;
    std::vector<FigureArtifact> kept;
};

} // namespace contest

#endif // CONTEST_HARNESS_ARTIFACT_HH
