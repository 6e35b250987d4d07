/**
 * @file
 * Request/response schema of the contest service protocol.
 *
 * One frame carries one JSON object. Requests:
 *
 *   {"kind": "ping",     "id": <any>}
 *   {"kind": "stats",    "id": <any>}
 *   {"kind": "shutdown", "id": <any>}
 *   {"kind": "single",   "id": <any>, "bench": "gcc", "core": "twolf"}
 *   {"kind": "contest",  "id": <any>, "bench": "gcc",
 *    "cores": ["gcc", "twolf"], "trace_len": 40000}
 *   {"kind": "experiment", "id": <any>, "name": "fig06"}
 *
 * "id" is optional and echoed verbatim in the response, so clients
 * may pipeline requests and match replies. Responses carry
 * {"ok": true, "kind": ..., ...} or {"ok": false, "error": "..."}.
 *
 * Parsing is strictly non-fatal: the daemon feeds this code
 * untrusted bytes, so every malformed request — wrong types, unknown
 * kinds, unknown benchmark or core names, out-of-range knobs — comes
 * back as (false, error string), never a panic or abort.
 */

#ifndef CONTEST_SERVE_PROTOCOL_HH
#define CONTEST_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace contest
{

/** One validated request. */
struct ServeRequest
{
    enum class Kind
    {
        Ping,       //!< liveness probe; answered inline
        Stats,      //!< telemetry snapshot; answered inline
        Shutdown,   //!< graceful drain; acked after in-flight work
        Single,     //!< one benchmark on one core type
        Contest,    //!< an N-way contested run
        Experiment, //!< a registered suite experiment by name
    };

    Kind kind = Kind::Ping;
    /** Echoed verbatim in the response (null when absent). */
    JsonValue id;
    std::string bench;              //!< single, contest
    std::string core;               //!< single
    std::vector<std::string> cores; //!< contest, 2..maxContestCores
    std::uint64_t traceLenOverride = 0; //!< contest; 0 = server's
    std::string experiment;             //!< experiment

    /** Most cores one contest request may name. */
    static constexpr std::size_t maxContestCores = 8;
    /** Largest per-request trace-length override (bounds the memory
     *  and time one request can demand). */
    static constexpr std::uint64_t maxTraceLenOverride = 4'000'000;
};

/**
 * Parse and validate one request document. Benchmark and core names
 * are checked against the trace profiles and the Appendix A palette
 * so a typo can never reach the (fatal-on-unknown-name) simulation
 * layers.
 *
 * @return false with @p error filled on any problem
 */
bool parseServeRequest(const JsonValue &doc, ServeRequest &out,
                       std::string &error);

/** The wire name of a request kind (e.g. "contest"). */
const char *serveKindName(ServeRequest::Kind kind);

/** A response skeleton: {"id": ..., "ok": true, "kind": ...}. */
JsonValue serveOkResponse(const ServeRequest &req);

/** An error response: {"id": ..., "ok": false, "error": ...}.
 *  @p id may be null (pass a null JsonValue when the request never
 *  parsed far enough to have one). */
JsonValue serveErrorResponse(const JsonValue &id,
                             const std::string &message);

} // namespace contest

#endif // CONTEST_SERVE_PROTOCOL_HH
