/**
 * @file
 * Tests of the contest service: the length-prefixed frame codec
 * (partial reads, pipelined frames, oversized-prefix poisoning),
 * request parsing and validation (every malformed shape must come
 * back as a structured error, never a panic), and the live server —
 * including the concurrency contract (two identical concurrent
 * requests simulate exactly once), the admission bound, warm hits
 * that never wait for a worker, connection reaping, and
 * graceful-drain semantics (in-flight work completes, new work is
 * refused, the shutdown ack arrives after the drain).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <poll.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/palette.hh"
#include "harness/registry.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace contest
{
namespace
{

std::string
uniqueSocketPath(const char *tag)
{
    return "/tmp/contest_test_" + std::string(tag) + "_"
           + std::to_string(getpid()) + ".sock";
}

/** A quiet server on a fresh Unix socket with a tiny trace. */
ServeOptions
testOptions(const char *tag, unsigned jobs)
{
    ServeOptions opts;
    opts.target.unixPath = uniqueSocketPath(tag);
    opts.settings = {4000, 99, /*fast=*/false, jobs};
    opts.quiet = true;
    return opts;
}

JsonValue
request(const char *kind, double id)
{
    JsonValue req = JsonValue::object();
    req.set("kind", JsonValue::str(kind));
    req.set("id", JsonValue::number(id));
    return req;
}

JsonValue
singleRequest(const char *bench, const char *core, double id)
{
    JsonValue req = request("single", id);
    req.set("bench", JsonValue::str(bench));
    req.set("core", JsonValue::str(core));
    return req;
}

bool
okFlag(const JsonValue &resp)
{
    const JsonValue *ok = resp.find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool();
}

std::string
errorText(const JsonValue &resp)
{
    const JsonValue *err = resp.find("error");
    return err != nullptr && err->isString() ? err->asString() : "";
}

/**
 * A cold contest that holds a worker for a while: gcc against the
 * palette core @p partner places among those other than gcc, at a
 * long trace. Distinct partners are distinct keys, so no two of
 * these requests share a result.
 */
JsonValue
slowContestRequest(std::size_t partner, double id)
{
    std::vector<std::string> others;
    for (const CoreConfig &core : appendixAPalette())
        if (core.name != "gcc")
            others.push_back(core.name);
    JsonValue cores = JsonValue::array();
    cores.push(JsonValue::str("gcc"));
    cores.push(JsonValue::str(others.at(partner)));
    JsonValue req = request("contest", id);
    req.set("bench", JsonValue::str("gcc"));
    req.set("cores", std::move(cores));
    req.set("trace_len", JsonValue::number(200000));
    return req;
}

/** The server's `in_flight` count, read through @p client. */
double
inFlight(ServeClient &client)
{
    JsonValue resp;
    std::string error;
    if (!client.call(request("stats", 0), resp, &error))
        return -1.0;
    return resp.at("server").at("in_flight").asNumber();
}

/** Open file descriptors of this process. */
std::size_t
openFds()
{
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/fd"),
        std::filesystem::directory_iterator()));
}

TEST(ServeFrame, RoundTripsThroughArbitraryChunking)
{
    const std::vector<std::string> payloads = {
        "", "x", R"({"kind":"ping"})", std::string(100000, 'z')};
    std::string wire;
    for (const std::string &p : payloads)
        wire += encodeFrame(p);

    // Feed the whole stream one byte at a time: every frame must
    // come out intact regardless of read-chunk boundaries.
    FrameDecoder decoder;
    std::vector<std::string> out;
    std::string payload;
    for (char c : wire) {
        decoder.feed(&c, 1);
        while (decoder.next(payload) == FrameDecoder::Status::Frame)
            out.push_back(payload);
    }
    EXPECT_EQ(out, payloads);
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ServeFrame, YieldsAllPipelinedFramesFromOneFeed)
{
    std::string wire =
        encodeFrame("first") + encodeFrame("second")
        + encodeFrame("third");
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::string payload;
    ASSERT_EQ(decoder.next(payload), FrameDecoder::Status::Frame);
    EXPECT_EQ(payload, "first");
    ASSERT_EQ(decoder.next(payload), FrameDecoder::Status::Frame);
    EXPECT_EQ(payload, "second");
    ASSERT_EQ(decoder.next(payload), FrameDecoder::Status::Frame);
    EXPECT_EQ(payload, "third");
    EXPECT_EQ(decoder.next(payload), FrameDecoder::Status::NeedMore);
}

TEST(ServeFrame, OversizedLengthPrefixPoisonsTheStream)
{
    // 0xFFFFFFFF declared bytes: far above the payload cap, and a
    // length that could never be resynchronized.
    const char huge[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
    FrameDecoder decoder;
    decoder.feed(huge, 4);
    std::string payload;
    EXPECT_EQ(decoder.next(payload), FrameDecoder::Status::Oversized);

    // Poisoning is sticky: even a subsequent valid frame must not
    // be trusted, because the stream position is garbage.
    const std::string valid = encodeFrame("after");
    decoder.feed(valid.data(), valid.size());
    EXPECT_EQ(decoder.next(payload), FrameDecoder::Status::Oversized);
}

TEST(ServeFrame, AcceptsPayloadExactlyAtTheCapBoundary)
{
    // A prefix of exactly kMaxFramePayload is legal; one byte more
    // poisons. Only headers are fed (the bodies would be 8 MiB).
    const std::uint32_t cap = kMaxFramePayload;
    const char at[4] = {static_cast<char>(cap >> 24),
                        static_cast<char>(cap >> 16),
                        static_cast<char>(cap >> 8),
                        static_cast<char>(cap)};
    FrameDecoder ok;
    ok.feed(at, 4);
    std::string payload;
    EXPECT_EQ(ok.next(payload), FrameDecoder::Status::NeedMore);

    const std::uint32_t over = cap + 1;
    const char above[4] = {static_cast<char>(over >> 24),
                           static_cast<char>(over >> 16),
                           static_cast<char>(over >> 8),
                           static_cast<char>(over)};
    FrameDecoder bad;
    bad.feed(above, 4);
    EXPECT_EQ(bad.next(payload), FrameDecoder::Status::Oversized);
}

TEST(ServeProtocol, RejectsEveryMalformedShapeWithAnError)
{
    struct Case
    {
        const char *json;
        const char *needle; //!< must appear in the error
    };
    const std::vector<Case> cases = {
        {R"([1,2,3])", "object"},
        {R"({})", "kind"},
        {R"({"kind":42})", "kind"},
        {R"({"kind":"launch_missiles"})", "unknown request kind"},
        {R"({"kind":"single","bench":7,"core":"gcc"})", "bench"},
        {R"({"kind":"single","bench":"nosuch","core":"gcc"})",
         "unknown benchmark"},
        {R"({"kind":"single","bench":"gcc","core":"nosuch"})",
         "unknown core type"},
        {R"({"kind":"contest","bench":"gcc","cores":"gcc"})",
         "array"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc"]})",
         "between 2 and"},
        {R"({"kind":"contest","bench":"gcc","cores":[1,2]})",
         "name string"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","bad"]})",
         "unknown core type"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","twolf"],
             "trace_len":-5})",
         "non-negative"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","twolf"],
             "trace_len":1.5})",
         "non-negative"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","twolf"],
             "trace_len":999999999})",
         "per-request limit"},
        {R"({"kind":"sleep"})", "unknown request kind"},
    };
    for (const Case &c : cases) {
        std::string parseError;
        JsonValue doc = JsonValue::parse(c.json, &parseError);
        ASSERT_TRUE(parseError.empty()) << c.json;
        ServeRequest req;
        std::string error;
        EXPECT_FALSE(parseServeRequest(doc, req, error)) << c.json;
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << c.json << " -> " << error;
    }
}

TEST(ServeProtocol, ParsesValidRequestsAndEchoesIds)
{
    std::string parseError;
    JsonValue doc = JsonValue::parse(
        R"({"kind":"contest","id":"req-7","bench":"gcc",
            "cores":["twolf","gcc"],"trace_len":1000})",
        &parseError);
    ASSERT_TRUE(parseError.empty());
    ServeRequest req;
    std::string error;
    ASSERT_TRUE(parseServeRequest(doc, req, error)) << error;
    EXPECT_EQ(req.kind, ServeRequest::Kind::Contest);
    EXPECT_EQ(req.bench, "gcc");
    ASSERT_EQ(req.cores.size(), 2u);
    EXPECT_EQ(req.cores[0], "twolf");
    EXPECT_EQ(req.cores[1], "gcc");
    EXPECT_EQ(req.traceLenOverride, 1000u);
    ASSERT_TRUE(req.id.isString());
    EXPECT_EQ(req.id.asString(), "req-7");

    JsonValue resp = serveOkResponse(req);
    EXPECT_EQ(resp.at("id").asString(), "req-7");
    EXPECT_TRUE(resp.at("ok").asBool());
    EXPECT_EQ(resp.at("kind").asString(), "contest");
}

TEST(ServeServer, AnswersPingStatsAndDrainsOnShutdown)
{
    ContestServer server(testOptions("basic", 2));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    JsonValue resp;
    ASSERT_TRUE(client.call(request("ping", 1), resp, &error))
        << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_EQ(resp.at("id").asNumber(), 1.0);

    ASSERT_TRUE(client.call(request("stats", 2), resp, &error))
        << error;
    ASSERT_TRUE(okFlag(resp));
    const JsonValue *stats = resp.find("server");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->at("jobs").asNumber(), 2.0);
    EXPECT_EQ(stats->at("trace_len").asNumber(), 4000.0);
    EXPECT_FALSE(stats->at("fast").asBool());
    EXPECT_FALSE(stats->at("draining").asBool());

    ASSERT_TRUE(client.call(request("shutdown", 3), resp, &error))
        << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_TRUE(resp.at("drained").asBool());
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, RunsSinglesAndMarksRepeatsWarm)
{
    ContestServer server(testOptions("warm", 2));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    JsonValue resp;
    ASSERT_TRUE(client.call(singleRequest("gcc", "twolf", 1), resp,
                            &error))
        << error;
    ASSERT_TRUE(okFlag(resp)) << errorText(resp);
    EXPECT_GT(resp.at("time_ps").asNumber(), 0.0);
    EXPECT_GT(resp.at("ipt").asNumber(), 0.0);
    EXPECT_FALSE(resp.at("timing").at("warm").asBool());
    const double coldPs = resp.at("time_ps").asNumber();

    ASSERT_TRUE(client.call(singleRequest("gcc", "twolf", 2), resp,
                            &error))
        << error;
    ASSERT_TRUE(okFlag(resp)) << errorText(resp);
    EXPECT_TRUE(resp.at("timing").at("warm").asBool());
    EXPECT_EQ(resp.at("time_ps").asNumber(), coldPs);
    EXPECT_EQ(server.runner().simulationsPerformed(), 1u);

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

/** A registered experiment for the daemon to serve: one artifact
 *  with one single-core result. */
void
serveToyExperiment(ExperimentContext &ctx)
{
    FigureArtifact art = ctx.artifact();
    art.scalar("gcc_ipt", ctx.runner.single("gcc", "gcc").result.ipt);
    ctx.sink.emit(art);
}

REGISTER_EXPERIMENT("zz_serve_toy", "Serve toy", serveToyExperiment);

TEST(ServeServer, RunsExperimentsUnderItsSettings)
{
    ServeOptions opts = testOptions("experiment", 2);
    opts.settings.fast = true;
    ContestServer server(opts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;
    JsonValue req = request("experiment", 1);
    req.set("name", JsonValue::str("zz_serve_toy"));
    JsonValue resp;
    ASSERT_TRUE(client.call(req, resp, &error)) << error;
    ASSERT_TRUE(okFlag(resp)) << errorText(resp);
    const JsonValue &artifacts = resp.at("artifacts");
    ASSERT_EQ(artifacts.size(), 1u);
    const FigureArtifact art =
        FigureArtifact::fromJson(artifacts.elements()[0], &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(art.name, "zz_serve_toy");
    EXPECT_EQ(art.meta.traceLen, opts.settings.traceLen);
    EXPECT_EQ(art.meta.seed, opts.settings.seed);
    EXPECT_EQ(art.meta.fast, opts.settings.fast);
    EXPECT_EQ(art.meta.jobs, opts.settings.jobs);
    EXPECT_EQ(server.runner().simulationsPerformed(), 1u);

    ASSERT_TRUE(client.call(request("stats", 2), resp, &error)) << error;
    EXPECT_TRUE(resp.at("server").at("fast").asBool());

    req.set("name", JsonValue::str("no_such_experiment"));
    ASSERT_TRUE(client.call(req, resp, &error)) << error;
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("unknown experiment 'no_such_"),
              std::string::npos)
        << errorText(resp);

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, ConcurrentIdenticalRequestsSimulateExactlyOnce)
{
    ContestServer server(testOptions("dedup", 4));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Two independent connections fire the identical request at the
    // same moment. The Runner's per-key once-latch must serialize
    // them onto one simulation; both clients still get full results.
    const unsigned kClients = 2;
    // char, not bool: std::vector<bool> packs both clients' flags
    // into one word, so the two threads' writes would race.
    std::vector<char> got(kClients, 0);
    std::vector<double> timePs(kClients, 0.0);
    {
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < kClients; ++i)
            threads.emplace_back([&, i] {
                ServeClient c;
                std::string threadError;
                if (!c.connect(server.target(), &threadError))
                    return;
                JsonValue resp;
                if (!c.call(singleRequest("twolf", "crafty", i),
                            resp, &threadError))
                    return;
                if (okFlag(resp)) {
                    got[i] = 1;
                    timePs[i] = resp.at("time_ps").asNumber();
                }
            });
        for (std::thread &t : threads)
            t.join();
    }
    for (unsigned i = 0; i < kClients; ++i) {
        EXPECT_TRUE(got[i]) << "client " << i;
        EXPECT_EQ(timePs[i], timePs[0]);
    }
    EXPECT_EQ(server.runner().simulationsPerformed(), 1u);

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, MalformedInputGetsStructuredErrorsNotDisconnects)
{
    ContestServer server(testOptions("malformed", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    // Raw garbage that frames correctly but is not JSON.
    ASSERT_TRUE(sendAll(client.rawFd(),
                        encodeFrame("this is not json {")));
    JsonValue resp;
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("invalid JSON"),
              std::string::npos);

    // A parseable document with an unknown benchmark.
    ASSERT_TRUE(client.call(singleRequest("nosuch", "gcc", 5), resp,
                            &error))
        << error;
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("unknown benchmark"),
              std::string::npos);

    // Over-deep nesting exercises the parser's depth bound through
    // the full network path.
    std::string deep(200, '[');
    ASSERT_TRUE(sendAll(client.rawFd(), encodeFrame(deep)));
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_FALSE(okFlag(resp));

    // The connection survived all of it.
    ASSERT_TRUE(client.call(request("ping", 6), resp, &error))
        << error;
    EXPECT_TRUE(okFlag(resp));

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, OversizedFrameGetsAnErrorThenTheConnectionCloses)
{
    ContestServer server(testOptions("oversized", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    // A hostile length prefix claiming ~4 GiB.
    const char huge[4] = {'\xFF', '\xFF', '\xFF', '\xFE'};
    ASSERT_TRUE(sendAll(client.rawFd(), std::string(huge, 4)));

    JsonValue resp;
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("oversized"), std::string::npos);

    // The stream cannot be resynchronized, so the server closes it.
    EXPECT_FALSE(client.recv(resp, &error));

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, HandlesPartialWritesAndPipelinedRequests)
{
    ContestServer server(testOptions("pipeline", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    // Two requests in one buffer, delivered in deliberately awkward
    // chunks (split mid-length-prefix and mid-payload).
    const std::string wire = encodeFrame(request("ping", 1).dump(0))
                             + encodeFrame(
                                 request("stats", 2).dump(0));
    const std::size_t cuts[] = {2, 9, wire.size()};
    std::size_t from = 0;
    for (std::size_t cut : cuts) {
        ASSERT_TRUE(
            sendAll(client.rawFd(), wire.substr(from, cut - from)));
        from = cut;
    }

    JsonValue resp;
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_EQ(resp.at("id").asNumber(), 1.0);
    EXPECT_EQ(resp.at("kind").asString(), "ping");
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_EQ(resp.at("id").asNumber(), 2.0);
    EXPECT_EQ(resp.at("kind").asString(), "stats");

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, AdmissionDepthBoundsAdmittedWork)
{
    ServeOptions opts = testOptions("depth", 1);
    opts.admissionDepth = 2;
    ContestServer server(opts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // One connection pipelines eight cold contests without reading a
    // reply.
    const int kJobs = 8;
    ServeClient a;
    ASSERT_TRUE(a.connect(server.target(), &error)) << error;
    for (int i = 0; i < kJobs; ++i)
        ASSERT_TRUE(a.send(slowContestRequest(i, i), &error)) << error;

    std::atomic<bool> done{false};
    int oks = 0;
    std::thread replies([&] {
        std::string err;
        JsonValue resp;
        for (int i = 0; i < kJobs && a.recv(resp, &err); ++i)
            oks += okFlag(resp) ? 1 : 0;
        done.store(true);
    });

    // Another connection watches in_flight while they run: queued
    // plus running jobs never exceed the depth.
    ServeClient b;
    ASSERT_TRUE(b.connect(server.target(), &error)) << error;
    double peak = 0.0;
    while (!done.load()) {
        peak = std::max(peak, inFlight(b));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    replies.join();
    EXPECT_EQ(oks, kJobs);
    EXPECT_EQ(peak, 2.0);

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, WarmHitDoesNotWaitForAWorker)
{
    ContestServer server(testOptions("inline", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient a;
    ASSERT_TRUE(a.connect(server.target(), &error)) << error;
    JsonValue resp;
    ASSERT_TRUE(a.call(singleRequest("gcc", "twolf", 1), resp, &error))
        << error;
    ASSERT_TRUE(okFlag(resp)) << errorText(resp);
    const double coldPs = resp.at("time_ps").asNumber();

    // Park the only worker in a cold contest.
    ASSERT_TRUE(a.send(slowContestRequest(0, 2), &error)) << error;
    ServeClient b;
    ASSERT_TRUE(b.connect(server.target(), &error)) << error;
    for (int tries = 0; tries < 200 && inFlight(b) < 1.0; ++tries)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GE(inFlight(b), 1.0);

    // The materialized single is answered without the worker...
    ASSERT_TRUE(b.call(singleRequest("gcc", "twolf", 3), resp, &error))
        << error;
    ASSERT_TRUE(okFlag(resp)) << errorText(resp);
    EXPECT_EQ(resp.at("time_ps").asNumber(), coldPs);
    EXPECT_TRUE(resp.at("timing").at("warm").asBool());
    EXPECT_EQ(resp.at("timing").at("queue_ms").asNumber(), 0.0);

    // ...so it arrives while the contest's reply is still owed.
    pollfd pending = {a.rawFd(), POLLIN, 0};
    EXPECT_EQ(::poll(&pending, 1, 0), 0);
    ASSERT_TRUE(a.recv(resp, &error)) << error;
    EXPECT_EQ(resp.at("id").asNumber(), 2.0);
    EXPECT_TRUE(okFlag(resp));

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, ReapsConnectionsWhenTheirReadersExit)
{
    ContestServer server(testOptions("reap", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const std::size_t before = openFds();
    for (int i = 0; i < 300; ++i) {
        ServeClient client;
        ASSERT_TRUE(client.connect(server.target(), &error)) << error;
        JsonValue resp;
        ASSERT_TRUE(client.call(request("ping", i), resp, &error))
            << error;
    }
    // The last reader may still be closing its fd.
    std::size_t after = openFds();
    for (int tries = 0; tries < 200 && after > before + 2; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        after = openFds();
    }
    EXPECT_LE(after, before + 2);

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, DrainCompletesInFlightWorkAndRefusesNewWork)
{
    ContestServer server(testOptions("drain", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Client A parks the only worker in a cold contest.
    ServeClient a;
    ASSERT_TRUE(a.connect(server.target(), &error)) << error;
    ASSERT_TRUE(a.send(slowContestRequest(0, 100), &error)) << error;

    // Client B waits until the contest is in flight, then asks for
    // shutdown and immediately tries to queue more work.
    ServeClient b;
    ASSERT_TRUE(b.connect(server.target(), &error)) << error;
    JsonValue resp;
    for (int tries = 0; tries < 200; ++tries) {
        ASSERT_TRUE(b.call(request("stats", 200), resp, &error))
            << error;
        if (resp.at("server").at("in_flight").asNumber() >= 1.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(resp.at("server").at("in_flight").asNumber(), 1.0);

    ASSERT_TRUE(b.send(request("shutdown", 201), &error)) << error;
    ASSERT_TRUE(b.send(slowContestRequest(1, 202), &error)) << error;

    // B's refusal arrives before the shutdown ack: the ack waits
    // for the drain, the refusal does not.
    ASSERT_TRUE(b.recv(resp, &error)) << error;
    EXPECT_EQ(resp.at("id").asNumber(), 202.0);
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("draining"), std::string::npos);

    // A's in-flight contest still completes successfully.
    ASSERT_TRUE(a.recv(resp, &error)) << error;
    EXPECT_EQ(resp.at("id").asNumber(), 100.0);
    EXPECT_TRUE(okFlag(resp));

    // And only then does the shutdown ack land.
    ASSERT_TRUE(b.recv(resp, &error)) << error;
    EXPECT_EQ(resp.at("id").asNumber(), 201.0);
    EXPECT_TRUE(okFlag(resp));
    EXPECT_TRUE(resp.at("drained").asBool());

    server.waitUntilStopped();

    // New connections are refused once the drain has begun.
    ServeClient late;
    EXPECT_FALSE(late.connect(server.target(), &error));
    ::unlink(server.target().unixPath.c_str());
}

} // namespace
} // namespace contest
