#include "serve/protocol.hh"

#include <cmath>

#include "core/palette.hh"
#include "trace/profile.hh"

namespace contest
{

namespace
{

/** The string member @p key, or false with @p error filled. */
bool
stringField(const JsonValue &doc, const std::string &key,
            std::string &out, std::string &error)
{
    const JsonValue *v = doc.find(key);
    if (v == nullptr || !v->isString()) {
        error = "request field '" + key + "' must be a string";
        return false;
    }
    out = v->asString();
    return true;
}

/** An optional non-negative integer member @p key (absent leaves
 *  @p out untouched). */
bool
u64Field(const JsonValue &doc, const std::string &key,
         std::uint64_t &out, std::string &error)
{
    const JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    if (!v->isNumber()) {
        error = "request field '" + key + "' must be a number";
        return false;
    }
    const double d = v->asNumber();
    if (!(d >= 0) || d != std::floor(d) || d > 9e15) {
        error = "request field '" + key
                + "' must be a non-negative integer";
        return false;
    }
    out = static_cast<std::uint64_t>(d);
    return true;
}

bool
knownBench(const std::string &name)
{
    for (const std::string &b : profileNames())
        if (b == name)
            return true;
    return false;
}

bool
knownCore(const std::string &name)
{
    for (const CoreConfig &c : appendixAPalette())
        if (c.name == name)
            return true;
    return false;
}

/** Validate a benchmark name against the trace profiles. */
bool
checkBench(const std::string &name, std::string &error)
{
    if (knownBench(name))
        return true;
    error = "unknown benchmark '" + name
            + "' (not a synthetic trace profile)";
    return false;
}

/** Validate a core-type name against the Appendix A palette. */
bool
checkCore(const std::string &name, std::string &error)
{
    if (knownCore(name))
        return true;
    error = "unknown core type '" + name
            + "' (not in the Appendix A palette)";
    return false;
}

} // namespace

bool
parseServeRequest(const JsonValue &doc, ServeRequest &out,
                  std::string &error)
{
    if (!doc.isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    if (const JsonValue *id = doc.find("id"))
        out.id = *id;

    std::string kind;
    if (!stringField(doc, "kind", kind, error))
        return false;

    if (kind == "ping") {
        out.kind = ServeRequest::Kind::Ping;
        return true;
    }
    if (kind == "stats") {
        out.kind = ServeRequest::Kind::Stats;
        return true;
    }
    if (kind == "shutdown") {
        out.kind = ServeRequest::Kind::Shutdown;
        return true;
    }

    if (kind == "single") {
        out.kind = ServeRequest::Kind::Single;
        if (!stringField(doc, "bench", out.bench, error)
            || !checkBench(out.bench, error))
            return false;
        if (!stringField(doc, "core", out.core, error)
            || !checkCore(out.core, error))
            return false;
        return true;
    }

    if (kind == "contest") {
        out.kind = ServeRequest::Kind::Contest;
        if (!stringField(doc, "bench", out.bench, error)
            || !checkBench(out.bench, error))
            return false;
        const JsonValue *cores = doc.find("cores");
        if (cores == nullptr || !cores->isArray()) {
            error = "request field 'cores' must be an array of "
                    "core-type names";
            return false;
        }
        if (cores->size() < 2
            || cores->size() > ServeRequest::maxContestCores) {
            error = "a contest needs between 2 and "
                    + std::to_string(ServeRequest::maxContestCores)
                    + " cores, got " + std::to_string(cores->size());
            return false;
        }
        for (const JsonValue &c : cores->elements()) {
            if (!c.isString()) {
                error = "every entry of 'cores' must be a core-type "
                        "name string";
                return false;
            }
            if (!checkCore(c.asString(), error))
                return false;
            out.cores.push_back(c.asString());
        }
        if (!u64Field(doc, "trace_len", out.traceLenOverride, error))
            return false;
        if (out.traceLenOverride > ServeRequest::maxTraceLenOverride) {
            error = "'trace_len' of "
                    + std::to_string(out.traceLenOverride)
                    + " exceeds the per-request limit of "
                    + std::to_string(ServeRequest::maxTraceLenOverride);
            return false;
        }
        return true;
    }

    if (kind == "experiment") {
        out.kind = ServeRequest::Kind::Experiment;
        if (!stringField(doc, "name", out.experiment, error))
            return false;
        // The registry is checked by the server (it owns the
        // in-suite restriction), not here.
        return true;
    }

    error = "unknown request kind '" + kind + "'";
    return false;
}

const char *
serveKindName(ServeRequest::Kind kind)
{
    switch (kind) {
      case ServeRequest::Kind::Ping:
        return "ping";
      case ServeRequest::Kind::Stats:
        return "stats";
      case ServeRequest::Kind::Shutdown:
        return "shutdown";
      case ServeRequest::Kind::Single:
        return "single";
      case ServeRequest::Kind::Contest:
        return "contest";
      case ServeRequest::Kind::Experiment:
        return "experiment";
    }
    return "unknown";
}

JsonValue
serveOkResponse(const ServeRequest &req)
{
    JsonValue resp = JsonValue::object();
    resp.set("id", req.id);
    resp.set("ok", JsonValue::boolean(true));
    resp.set("kind", JsonValue::str(serveKindName(req.kind)));
    return resp;
}

JsonValue
serveErrorResponse(const JsonValue &id, const std::string &message)
{
    JsonValue resp = JsonValue::object();
    resp.set("id", id);
    resp.set("ok", JsonValue::boolean(false));
    resp.set("error", JsonValue::str(message));
    return resp;
}

} // namespace contest
