#include "harness/artifact.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/log.hh"
#include "common/table.hh"

namespace contest
{

ArtifactCell
cellText(std::string text)
{
    ArtifactCell c;
    c.text = std::move(text);
    return c;
}

ArtifactCell
cellNum(double value, int precision)
{
    ArtifactCell c;
    c.text = TextTable::num(value, precision);
    c.numeric = true;
    c.value = value;
    return c;
}

ArtifactCell
cellPct(double fraction, int precision)
{
    ArtifactCell c;
    c.text = TextTable::pct(fraction, precision);
    c.numeric = true;
    c.value = fraction;
    return c;
}

ArtifactCell
cellCount(std::uint64_t count)
{
    ArtifactCell c;
    c.text = std::to_string(count);
    c.numeric = true;
    c.value = static_cast<double>(count);
    return c;
}

ArtifactCell
cellCustom(double value, std::string text)
{
    ArtifactCell c;
    c.text = std::move(text);
    c.numeric = true;
    c.value = value;
    return c;
}

void
ArtifactTable::row(std::vector<ArtifactCell> cells)
{
    fatal_if(columns.empty(),
             "ArtifactTable::row() before the columns were set");
    fatal_if(cells.size() != columns.size(),
             "ArtifactTable row width %zu does not match the %zu "
             "columns of '%s'",
             cells.size(), columns.size(), title.c_str());
    rows.push_back(std::move(cells));
}

std::string
ArtifactTable::renderText() const
{
    TextTable t(title);
    t.header(columns);
    for (const auto &r : rows) {
        std::vector<std::string> texts;
        texts.reserve(r.size());
        for (const auto &c : r)
            texts.push_back(c.text);
        t.row(std::move(texts));
    }
    return t.render();
}

ArtifactMeta::ArtifactMeta(const RunSettings &run)
    : traceLen(run.traceLen), seed(run.seed), jobs(run.jobs),
      fast(run.fast), cpus(std::thread::hardware_concurrency())
{
    static const std::string git_describe = [] {
        std::string out;
        if (FILE *p = ::popen(
                "git describe --always --dirty 2>/dev/null", "r")) {
            char buf[128];
            while (std::fgets(buf, sizeof(buf), p) != nullptr)
                out += buf;
            ::pclose(p);
        }
        while (!out.empty()
               && (out.back() == '\n' || out.back() == '\r'))
            out.pop_back();
        return out.empty() ? std::string("unknown") : out;
    }();
    git = git_describe;
}

ArtifactTable &
FigureArtifact::table(std::string table_title)
{
    ArtifactTable t;
    t.title = std::move(table_title);
    tables.push_back(std::move(t));
    return tables.back();
}

void
FigureArtifact::scalar(const std::string &scalar_name, double value)
{
    for (const auto &s : scalars)
        fatal_if(s.first == scalar_name,
                 "artifact '%s' already has a scalar named '%s'",
                 name.c_str(), scalar_name.c_str());
    scalars.emplace_back(scalar_name, value);
}

void
FigureArtifact::note(std::string text)
{
    notes.push_back(std::move(text));
}

std::string
FigureArtifact::renderText() const
{
    std::string out = "# " + title + " | trace length "
        + std::to_string(meta.traceLen) + ", seed "
        + std::to_string(meta.seed) + ", jobs "
        + std::to_string(meta.jobs)
        + (meta.fast ? ", fast mode" : "") + "\n";
    for (const auto &t : tables) {
        out += t.renderText();
        out += '\n';
    }
    for (const auto &n : notes) {
        out += n;
        out += "\n\n";
    }
    return out;
}

JsonValue
FigureArtifact::toJson() const
{
    JsonValue root = JsonValue::object();
    root.set("name", JsonValue::str(name));
    root.set("title", JsonValue::str(title));

    JsonValue m = JsonValue::object();
    m.set("schema", JsonValue::number(meta.schema));
    m.set("trace_len",
          JsonValue::number(static_cast<double>(meta.traceLen)));
    m.set("seed", JsonValue::number(static_cast<double>(meta.seed)));
    m.set("jobs", JsonValue::number(meta.jobs));
    m.set("fast", JsonValue::boolean(meta.fast));
    m.set("cpus", JsonValue::number(meta.cpus));
    m.set("git", JsonValue::str(meta.git));
    root.set("meta", std::move(m));

    JsonValue sc = JsonValue::object();
    for (const auto &s : scalars)
        sc.set(s.first, JsonValue::number(s.second));
    root.set("scalars", std::move(sc));

    JsonValue ts = JsonValue::array();
    for (const auto &t : tables) {
        JsonValue jt = JsonValue::object();
        jt.set("title", JsonValue::str(t.title));
        JsonValue cols = JsonValue::array();
        for (const auto &c : t.columns)
            cols.push(JsonValue::str(c));
        jt.set("columns", std::move(cols));
        JsonValue rows = JsonValue::array();
        for (const auto &r : t.rows) {
            JsonValue row = JsonValue::array();
            for (const auto &c : r) {
                if (c.numeric) {
                    JsonValue cell = JsonValue::object();
                    cell.set("t", JsonValue::str(c.text));
                    cell.set("v", JsonValue::number(c.value));
                    row.push(std::move(cell));
                } else {
                    row.push(JsonValue::str(c.text));
                }
            }
            rows.push(std::move(row));
        }
        jt.set("rows", std::move(rows));
        ts.push(std::move(jt));
    }
    root.set("tables", std::move(ts));

    JsonValue ns = JsonValue::array();
    for (const auto &n : notes)
        ns.push(JsonValue::str(n));
    root.set("notes", std::move(ns));
    return root;
}

namespace
{

/** find() that records a structural error instead of panicking. */
const JsonValue *
member(const JsonValue &v, const char *key, JsonValue::Kind kind,
       std::string *error)
{
    if (!v.isObject()) {
        if (error->empty())
            *error = std::string("expected an object around '") + key
                + "'";
        return nullptr;
    }
    const JsonValue *m = v.find(key);
    if (m == nullptr || m->kind() != kind) {
        if (error->empty())
            *error = std::string("missing or mistyped member '") + key
                + "'";
        return nullptr;
    }
    return m;
}

} // namespace

FigureArtifact
FigureArtifact::fromJson(const JsonValue &v, std::string *error)
{
    std::string local_err;
    std::string *err = error != nullptr ? error : &local_err;
    err->clear();

    FigureArtifact a;
    using K = JsonValue::Kind;
    const JsonValue *name_v = member(v, "name", K::String, err);
    const JsonValue *title_v = member(v, "title", K::String, err);
    const JsonValue *meta_v = member(v, "meta", K::Object, err);
    const JsonValue *scalars_v = member(v, "scalars", K::Object, err);
    const JsonValue *tables_v = member(v, "tables", K::Array, err);
    const JsonValue *notes_v = member(v, "notes", K::Array, err);
    if (!err->empty())
        return {};

    a.name = name_v->asString();
    a.title = title_v->asString();

    const JsonValue *schema_v = member(*meta_v, "schema", K::Number, err);
    const JsonValue *len_v = member(*meta_v, "trace_len", K::Number, err);
    const JsonValue *seed_v = member(*meta_v, "seed", K::Number, err);
    const JsonValue *jobs_v = member(*meta_v, "jobs", K::Number, err);
    const JsonValue *fast_v = member(*meta_v, "fast", K::Bool, err);
    const JsonValue *git_v = member(*meta_v, "git", K::String, err);
    if (!err->empty())
        return {};
    a.meta.schema = static_cast<int>(schema_v->asNumber());
    a.meta.traceLen =
        static_cast<std::uint64_t>(len_v->asNumber());
    a.meta.seed = static_cast<std::uint64_t>(seed_v->asNumber());
    a.meta.jobs = static_cast<unsigned>(jobs_v->asNumber());
    a.meta.fast = fast_v->asBool();
    // Absent in artifacts written before the field existed; keep
    // them loadable (0 = unknown machine).
    if (const JsonValue *cpus_v = meta_v->find("cpus");
        cpus_v != nullptr && cpus_v->isNumber())
        a.meta.cpus = static_cast<unsigned>(cpus_v->asNumber());
    a.meta.git = git_v->asString();

    for (const auto &s : scalars_v->members()) {
        if (!s.second.isNumber()) {
            *err = "scalar '" + s.first + "' is not a number";
            return {};
        }
        a.scalars.emplace_back(s.first, s.second.asNumber());
    }

    for (const auto &jt : tables_v->elements()) {
        const JsonValue *t_title = member(jt, "title", K::String, err);
        const JsonValue *t_cols = member(jt, "columns", K::Array, err);
        const JsonValue *t_rows = member(jt, "rows", K::Array, err);
        if (!err->empty())
            return {};
        ArtifactTable t;
        t.title = t_title->asString();
        for (const auto &c : t_cols->elements()) {
            if (!c.isString()) {
                *err = "table column name is not a string";
                return {};
            }
            t.columns.push_back(c.asString());
        }
        for (const auto &jr : t_rows->elements()) {
            if (!jr.isArray()
                || jr.size() != t.columns.size()) {
                *err = "table '" + t.title
                    + "' has a malformed row";
                return {};
            }
            std::vector<ArtifactCell> row;
            for (const auto &jc : jr.elements()) {
                if (jc.isString()) {
                    row.push_back(cellText(jc.asString()));
                } else if (jc.isObject() && jc.find("v") != nullptr
                           && jc.at("v").isNumber()
                           && jc.find("t") != nullptr
                           && jc.at("t").isString()) {
                    row.push_back(cellCustom(jc.at("v").asNumber(),
                                             jc.at("t").asString()));
                } else {
                    *err = "table '" + t.title
                        + "' has a malformed cell";
                    return {};
                }
            }
            t.rows.push_back(std::move(row));
        }
        a.tables.push_back(std::move(t));
    }

    for (const auto &n : notes_v->elements()) {
        if (!n.isString()) {
            *err = "note is not a string";
            return {};
        }
        a.notes.push_back(n.asString());
    }
    return a;
}

bool
ArtifactTolerance::close(double golden, double candidate) const
{
    // Non-finite values never pass the gate. NaN compares unordered,
    // so `diff <= bound` is false-shaped by accident — but an
    // *infinite* golden makes rtol * |golden| infinite and the bound
    // swallows every finite candidate, and +Inf == +Inf passes the
    // equality fast path. A non-finite measurement is a regression
    // in itself; fail it hard instead of reasoning about tolerances.
    if (!std::isfinite(golden) || !std::isfinite(candidate))
        return false;
    if (golden == candidate)
        return true;
    double diff = std::fabs(golden - candidate);
    return diff <= atol + rtol * std::fabs(golden);
}

std::vector<std::string>
diffArtifacts(const FigureArtifact &golden,
              const FigureArtifact &candidate,
              const ArtifactTolerance &tol)
{
    std::vector<std::string> out;
    auto mism = [&](const std::string &what) { out.push_back(what); };

    if (golden.name != candidate.name)
        mism("name: '" + golden.name + "' vs '" + candidate.name
             + "'");
    if (golden.title != candidate.title)
        mism("title: '" + golden.title + "' vs '" + candidate.title
             + "'");
    if (golden.meta.schema != candidate.meta.schema)
        mism("meta.schema: " + std::to_string(golden.meta.schema)
             + " vs " + std::to_string(candidate.meta.schema));
    if (golden.meta.traceLen != candidate.meta.traceLen)
        mism("meta.trace_len: "
             + std::to_string(golden.meta.traceLen) + " vs "
             + std::to_string(candidate.meta.traceLen));
    if (golden.meta.seed != candidate.meta.seed)
        mism("meta.seed: " + std::to_string(golden.meta.seed)
             + " vs " + std::to_string(candidate.meta.seed));
    if (golden.meta.fast != candidate.meta.fast)
        mism(std::string("meta.fast: ")
             + (golden.meta.fast ? "true" : "false") + " vs "
             + (candidate.meta.fast ? "true" : "false"));

    // Scalars: same names in the same order, values in tolerance.
    std::size_t ns = std::min(golden.scalars.size(),
                              candidate.scalars.size());
    for (std::size_t i = 0; i < ns; ++i) {
        const auto &g = golden.scalars[i];
        const auto &c = candidate.scalars[i];
        if (g.first != c.first) {
            mism("scalar #" + std::to_string(i) + ": name '"
                 + g.first + "' vs '" + c.first + "'");
        } else if (!tol.close(g.second, c.second)) {
            mism("scalar '" + g.first
                 + "': " + jsonNumber(g.second) + " vs "
                 + jsonNumber(c.second));
        }
    }
    if (golden.scalars.size() != candidate.scalars.size())
        mism("scalar count: " + std::to_string(golden.scalars.size())
             + " vs " + std::to_string(candidate.scalars.size()));

    if (golden.tables.size() != candidate.tables.size())
        mism("table count: " + std::to_string(golden.tables.size())
             + " vs " + std::to_string(candidate.tables.size()));
    std::size_t nt = std::min(golden.tables.size(),
                              candidate.tables.size());
    for (std::size_t t = 0; t < nt; ++t) {
        const auto &gt = golden.tables[t];
        const auto &ct = candidate.tables[t];
        const std::string where = "table '" + gt.title + "'";
        if (gt.title != ct.title) {
            mism("table #" + std::to_string(t) + " title: '"
                 + gt.title + "' vs '" + ct.title + "'");
            continue;
        }
        if (gt.columns != ct.columns) {
            mism(where + ": column names differ");
            continue;
        }
        if (gt.rows.size() != ct.rows.size()) {
            mism(where + ": row count "
                 + std::to_string(gt.rows.size()) + " vs "
                 + std::to_string(ct.rows.size()));
            continue;
        }
        for (std::size_t r = 0; r < gt.rows.size(); ++r) {
            for (std::size_t c = 0; c < gt.columns.size(); ++c) {
                const auto &gc = gt.rows[r][c];
                const auto &cc = ct.rows[r][c];
                const std::string cell_where = where + " row "
                    + std::to_string(r) + " col '" + gt.columns[c]
                    + "'";
                if (gc.numeric != cc.numeric) {
                    mism(cell_where
                         + ": numeric vs label cell kind");
                } else if (gc.numeric) {
                    if (!tol.close(gc.value, cc.value))
                        mism(cell_where + ": " + jsonNumber(gc.value)
                             + " vs " + jsonNumber(cc.value));
                } else if (gc.text != cc.text) {
                    mism(cell_where + ": '" + gc.text + "' vs '"
                         + cc.text + "'");
                }
            }
        }
    }
    return out;
}

ArtifactSink::ArtifactSink(std::string out_dir, bool echo)
    : dir(std::move(out_dir)), echoStdout(echo)
{}

void
ArtifactSink::emit(const FigureArtifact &artifact)
{
    fatal_if(artifact.name.empty(),
             "refusing to emit an artifact with no name");
    if (echoStdout) {
        std::fputs(artifact.renderText().c_str(), stdout);
        std::fflush(stdout);
    }
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        fatal_if(static_cast<bool>(ec),
                 "cannot create artifact directory '%s': %s",
                 dir.c_str(), ec.message().c_str());
        std::string path = dir + "/" + artifact.name + ".json";
        std::ofstream f(path, std::ios::trunc);
        fatal_if(!f.good(), "cannot open artifact file '%s'",
                 path.c_str());
        f << artifact.toJson().dump(2);
        f.close();
        fatal_if(!f.good(), "failed writing artifact file '%s'",
                 path.c_str());
        files.push_back(std::move(path));
    }
    kept.push_back(artifact);
}

} // namespace contest
