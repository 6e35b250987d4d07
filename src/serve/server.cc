#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/log.hh"
#include "core/palette.hh"
#include "harness/registry.hh"

namespace contest
{

namespace
{

/** Milliseconds between two steady-clock points, as a double. */
double
msBetween(SimTimeline::Clock::time_point from,
          SimTimeline::Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

/** The palette configs of a contest request's cores. */
std::vector<CoreConfig>
coreConfigs(const ServeRequest &req)
{
    std::vector<CoreConfig> cores;
    cores.reserve(req.cores.size());
    for (const std::string &name : req.cores)
        cores.push_back(coreConfigByName(name));
    return cores;
}

/** A single request's reply without its timing block. The inline
 *  and the worker path both build it here, so a warm and a cold
 *  reply carry the same bytes. */
JsonValue
singleReply(const ServeRequest &req, const LoggedRun &run)
{
    JsonValue resp = serveOkResponse(req);
    resp.set("time_ps", JsonValue::number(static_cast<double>(
                            run.result.timePs.count())));
    resp.set("ipt", JsonValue::number(run.result.ipt));
    resp.set("energy_nj",
             JsonValue::number(run.result.energy.totalNj()));
    return resp;
}

/** A contest request's reply without its timing block; as
 *  singleReply(). */
JsonValue
contestReply(const ServeRequest &req, const ContestResult &result)
{
    JsonValue resp = serveOkResponse(req);
    resp.set("time_ps", JsonValue::number(static_cast<double>(
                            result.timePs.count())));
    resp.set("ipt", JsonValue::number(result.ipt));
    resp.set("lead_changes", JsonValue::number(static_cast<double>(
                                 result.leadChanges)));
    resp.set("energy_nj", JsonValue::number(result.totalEnergyNj()));
    JsonValue lead = JsonValue::array();
    for (double f : result.leadFraction)
        lead.push(JsonValue::number(f));
    resp.set("lead_fraction", std::move(lead));
    return resp;
}

} // namespace

ContestServer::ContestServer(ServeOptions options)
    : opts(std::move(options)), pool(opts.jobs + 1)
{
    if (!opts.cacheDir.empty())
        cache = std::make_unique<ResultCache>(opts.cacheDir);
    runner_ =
        std::make_unique<Runner>(opts.traceLen, opts.seed, &pool);
    if (cache)
        runner_->setResultCache(cache.get());
    runner_->setTimeline(&timeline);
}

ContestServer::~ContestServer()
{
    requestShutdown();
    waitUntilStopped();
    closeFd(wakePipe[0]);
    closeFd(wakePipe[1]);
}

bool
ContestServer::start(std::string *error)
{
    if (::pipe(wakePipe) != 0) {
        if (error != nullptr)
            *error = "cannot create shutdown wake pipe";
        return false;
    }
    listenFd = listenOn(opts.target, error);
    if (listenFd < 0)
        return false;
    if (!opts.quiet)
        inform("contest_serve listening on %s (jobs %u, trace_len "
               "%llu, seed %llu, cache %s)",
               opts.target.describe().c_str(), opts.jobs,
               static_cast<unsigned long long>(opts.traceLen),
               static_cast<unsigned long long>(opts.seed),
               cache ? opts.cacheDir.c_str() : "off");
    started = true;
    acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
ContestServer::requestShutdown()
{
    // Async-signal-safe: one atomic store and one pipe write. The
    // accept thread owns every condition-variable notification.
    draining.store(true);
    if (wakePipe[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] ssize_t rc = ::write(wakePipe[1], &byte, 1);
    }
}

void
ContestServer::waitUntilStopped()
{
    if (!started)
        return;
    if (acceptThread.joinable())
        acceptThread.join();
}

void
ContestServer::acceptLoop()
{
    while (!draining.load()) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0)
            continue; // EINTR
        if (draining.load() || (fds[1].revents & POLLIN) != 0)
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int client = acceptClient(listenFd);
        if (client < 0)
            continue;
        joinExitedReaders();
        auto conn = std::make_shared<Connection>();
        conn->fd = client;
        connectionsAccepted.fetch_add(1);
        // The thread is stored under connMu, which its reader takes
        // before it reports its exit, so an exited id always names a
        // thread in readerThreads.
        std::lock_guard<std::mutex> lock(connMu);
        connections.push_back(conn);
        readerThreads.emplace_back(
            [this, conn] { readerLoop(conn); });
    }
    drainAndStop();
}

void
ContestServer::joinExitedReaders()
{
    std::vector<std::thread> exited;
    {
        std::lock_guard<std::mutex> lock(connMu);
        for (std::thread::id id : exitedReaders) {
            auto it = std::find_if(
                readerThreads.begin(), readerThreads.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            exited.push_back(std::move(*it));
            *it = std::move(readerThreads.back());
            readerThreads.pop_back();
        }
        exitedReaders.clear();
    }
    for (std::thread &t : exited)
        t.join();
}

void
ContestServer::drainAndStop()
{
    // 1. Stop accepting (the accept loop has already exited; close
    //    the listening socket so connect() now fails fast).
    closeFd(listenFd);
    listenFd = -1;

    // 2. Wake the readers blocked on admission (they refuse their
    //    request now), then wait for every admitted job to finish.
    {
        std::unique_lock<std::mutex> lock(inFlightMu);
        inFlightCv.notify_all();
        inFlightCv.wait(lock, [this] { return inFlight == 0; });
    }

    // 3. Ack the shutdown request(s) now that the drain is complete.
    {
        std::lock_guard<std::mutex> lock(ackMu);
        for (auto &[conn, id] : shutdownAcks) {
            ServeRequest req;
            req.kind = ServeRequest::Kind::Shutdown;
            req.id = id;
            JsonValue resp = serveOkResponse(req);
            resp.set("drained", JsonValue::boolean(true));
            respond(conn, resp);
        }
        shutdownAcks.clear();
    }

    // 4. Unblock every reader (a blocked recv() returns once its
    //    socket is shut down) and join them; each closes its own
    //    connection as it exits.
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(connMu);
        for (const ConnPtr &conn : connections) {
            conn->open.store(false);
            ::shutdown(conn->fd, SHUT_RDWR);
        }
        readers.swap(readerThreads);
    }
    for (std::thread &t : readers)
        t.join();
    if (!opts.quiet)
        inform("contest_serve drained: %llu requests (%llu ok, %llu "
               "failed, %llu refused), %llu warm hits",
               static_cast<unsigned long long>(requestsTotal.load()),
               static_cast<unsigned long long>(requestsOk.load()),
               static_cast<unsigned long long>(requestsFailed.load()),
               static_cast<unsigned long long>(
                   requestsRefused.load()),
               static_cast<unsigned long long>(warmHits.load()));
}

void
ContestServer::readerLoop(ConnPtr conn)
{
    FrameDecoder decoder;
    std::string payload;
    std::string error;
    while (conn->open.load()) {
        if (!recvFrame(conn->fd, decoder, payload, &error)) {
            // An oversized length prefix gets a structured error
            // before the connection closes; the decoder is sticky,
            // so re-asking it distinguishes poison from EOF.
            std::string dummy;
            if (decoder.next(dummy)
                == FrameDecoder::Status::Oversized) {
                respond(conn,
                        serveErrorResponse(JsonValue(), error));
            }
            break;
        }
        handleFrame(conn, payload);
    }
    // The connection is dead (EOF, error, a poisoned stream, or the
    // drain). Shutting it down first makes a worker blocked sending
    // to it return, so the write mutex comes free; with open false
    // under that mutex, a late reply never writes into a reused fd
    // number.
    ::shutdown(conn->fd, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(connMu);
    {
        std::lock_guard<std::mutex> writeLock(conn->writeMu);
        conn->open.store(false);
        closeFd(conn->fd);
        conn->fd = -1;
    }
    connections.erase(
        std::find(connections.begin(), connections.end(), conn));
    exitedReaders.push_back(std::this_thread::get_id());
}

void
ContestServer::handleFrame(const ConnPtr &conn,
                           const std::string &payload)
{
    requestsTotal.fetch_add(1);

    std::string parseError;
    JsonValue doc = JsonValue::parse(payload, &parseError);
    if (!parseError.empty()) {
        requestsFailed.fetch_add(1);
        respond(conn, serveErrorResponse(
                          JsonValue(),
                          "invalid JSON: " + parseError));
        return;
    }

    ServeRequest req;
    std::string error;
    if (!parseServeRequest(doc, req, error)) {
        requestsFailed.fetch_add(1);
        respond(conn, serveErrorResponse(req.id, error));
        return;
    }

    switch (req.kind) {
      case ServeRequest::Kind::Ping: {
        requestsOk.fetch_add(1);
        JsonValue resp = serveOkResponse(req);
        resp.set("draining", JsonValue::boolean(draining.load()));
        respond(conn, resp);
        return;
      }
      case ServeRequest::Kind::Stats:
        requestsOk.fetch_add(1);
        respond(conn, statsJson(req));
        return;
      case ServeRequest::Kind::Shutdown: {
        {
            std::lock_guard<std::mutex> lock(ackMu);
            shutdownAcks.emplace_back(conn, req.id);
        }
        requestsOk.fetch_add(1);
        requestShutdown();
        return;
      }
      case ServeRequest::Kind::Single:
      case ServeRequest::Kind::Contest:
        if (!draining.load() && answerIfReady(conn, req))
            return;
        [[fallthrough]];
      default:
        admit(conn, std::move(req));
        return;
    }
}

bool
ContestServer::answerIfReady(const ConnPtr &conn,
                             const ServeRequest &req)
{
    const auto startedAt = SimTimeline::now();
    JsonValue resp;
    if (req.kind == ServeRequest::Kind::Single) {
        const LoggedRun *run = runner_->singleIfReady(
            req.bench, coreConfigByName(req.core));
        if (run == nullptr)
            return false;
        resp = singleReply(req, *run);
    } else {
        const ContestResult *result = runner_->contestedIfReady(
            req.bench, coreConfigs(req), ContestConfig{},
            req.traceLenOverride);
        if (result == nullptr)
            return false;
        resp = contestReply(req, *result);
    }
    // Warm by construction: nothing ran for this request.
    respondOk(conn, std::move(resp), startedAt, startedAt, true);
    return true;
}

void
ContestServer::admit(const ConnPtr &conn, ServeRequest req)
{
    const auto queuedAt = SimTimeline::now();
    {
        std::unique_lock<std::mutex> lock(inFlightMu);
        inFlightCv.wait(lock, [this] {
            return inFlight < opts.admissionDepth || draining.load();
        });
        if (draining.load()) {
            lock.unlock();
            requestsRefused.fetch_add(1);
            respond(conn, serveErrorResponse(
                              req.id,
                              "server is draining; request refused"));
            return;
        }
        ++inFlight;
    }
    pool.post([this, job = Job{conn, std::move(req), queuedAt}] {
        execute(job);
        std::lock_guard<std::mutex> lock(inFlightMu);
        --inFlight;
        inFlightCv.notify_all();
    });
}

void
ContestServer::execute(const Job &job)
{
    const ServeRequest &req = job.req;
    const auto startedAt = SimTimeline::now();
    JsonValue resp;
    // Experiment replies are cold. A single or contest reply is warm
    // unless this call materialized its result (ran the Runner's
    // once-latch body): a twin that waited on the latch, or a result
    // that landed after the reader's probe, reads warm.
    bool materialized = true;

    switch (req.kind) {
      case ServeRequest::Kind::Single:
        resp = singleReply(
            req, runner_->single(req.bench, coreConfigByName(req.core),
                                 0, &materialized));
        break;
      case ServeRequest::Kind::Contest:
        resp = contestReply(
            req, runner_->contested(req.bench, coreConfigs(req),
                                    ContestConfig{},
                                    req.traceLenOverride,
                                    &materialized));
        break;
      case ServeRequest::Kind::Experiment: {
        const ExperimentInfo *info =
            ExperimentRegistry::instance().find(req.experiment);
        if (info == nullptr) {
            requestsFailed.fetch_add(1);
            respond(job.conn,
                    serveErrorResponse(req.id,
                                       "unknown experiment '"
                                           + req.experiment + "'"));
            return;
        }
        ArtifactSink sink("", false);
        ExperimentContext ctx{*runner_, sink, *info};
        info->fn(ctx);
        JsonValue artifacts = JsonValue::array();
        for (const FigureArtifact &a : sink.emitted())
            artifacts.push(a.toJson());
        resp = serveOkResponse(req);
        resp.set("artifacts", std::move(artifacts));
        break;
      }
      default:
        requestsFailed.fetch_add(1);
        respond(job.conn, serveErrorResponse(
                              req.id, "request kind cannot be executed "
                                      "by a pool worker"));
        return;
    }
    respondOk(job.conn, std::move(resp), job.queuedAt, startedAt,
              !materialized);
}

void
ContestServer::respondOk(const ConnPtr &conn, JsonValue resp,
                         SimTimeline::Clock::time_point queuedAt,
                         SimTimeline::Clock::time_point startedAt,
                         bool warm)
{
    JsonValue timing = JsonValue::object();
    timing.set("queue_ms",
               JsonValue::number(msBetween(queuedAt, startedAt)));
    timing.set("run_ms", JsonValue::number(
                             msBetween(startedAt, SimTimeline::now())));
    timing.set("warm", JsonValue::boolean(warm));
    resp.set("timing", std::move(timing));
    if (warm)
        warmHits.fetch_add(1);
    requestsOk.fetch_add(1);
    respond(conn, resp);
}

JsonValue
ContestServer::statsJson(const ServeRequest &req)
{
    JsonValue resp = serveOkResponse(req);
    JsonValue server = JsonValue::object();
    server.set("jobs", JsonValue::number(opts.jobs));
    server.set("trace_len",
               JsonValue::number(
                   static_cast<double>(opts.traceLen)));
    server.set("seed", JsonValue::number(
                           static_cast<double>(opts.seed)));
    server.set("draining", JsonValue::boolean(draining.load()));
    {
        std::lock_guard<std::mutex> lock(inFlightMu);
        server.set("in_flight",
                   JsonValue::number(
                       static_cast<double>(inFlight)));
    }
    {
        std::lock_guard<std::mutex> lock(connMu);
        server.set("connections",
                   JsonValue::number(static_cast<double>(
                       connections.size())));
    }
    server.set("connections_accepted",
               JsonValue::number(static_cast<double>(
                   connectionsAccepted.load())));

    JsonValue requests = JsonValue::object();
    requests.set("total", JsonValue::number(static_cast<double>(
                              requestsTotal.load())));
    requests.set("ok", JsonValue::number(static_cast<double>(
                           requestsOk.load())));
    requests.set("failed", JsonValue::number(static_cast<double>(
                               requestsFailed.load())));
    requests.set("refused", JsonValue::number(static_cast<double>(
                                requestsRefused.load())));
    requests.set("warm_hits",
                 JsonValue::number(
                     static_cast<double>(warmHits.load())));
    server.set("requests", std::move(requests));

    JsonValue sims = JsonValue::object();
    sims.set("singles_executed",
             JsonValue::number(static_cast<double>(
                 runner_->simulationsPerformed())));
    sims.set("contests_executed",
             JsonValue::number(static_cast<double>(
                 runner_->contestsPerformed())));
    sims.set("disk_hits", JsonValue::number(static_cast<double>(
                              runner_->diskHits())));
    sims.set("contest_disk_hits",
             JsonValue::number(static_cast<double>(
                 runner_->contestDiskHits())));
    server.set("sims", std::move(sims));

    if (cache) {
        JsonValue disk = JsonValue::object();
        disk.set("dir", JsonValue::str(cache->directory()));
        disk.set("hits", JsonValue::number(static_cast<double>(
                             cache->hits())));
        disk.set("misses", JsonValue::number(static_cast<double>(
                               cache->misses())));
        disk.set("stores", JsonValue::number(static_cast<double>(
                               cache->stores())));
        server.set("result_cache", std::move(disk));
    }

    const SimTimeline::Summary summary = timeline.summary();
    JsonValue tl = JsonValue::object();
    tl.set("sims", JsonValue::number(
                       static_cast<double>(summary.sims)));
    tl.set("cache_hits", JsonValue::number(static_cast<double>(
                             summary.cacheHits)));
    tl.set("busy_sec", JsonValue::number(summary.busySec));
    tl.set("queue_sec", JsonValue::number(summary.queueSec));
    tl.set("wall_sec", JsonValue::number(summary.wallSec));
    tl.set("concurrency", JsonValue::number(summary.concurrency()));
    server.set("timeline", std::move(tl));

    resp.set("server", std::move(server));
    return resp;
}

void
ContestServer::respond(const ConnPtr &conn, const JsonValue &resp)
{
    const std::string frame = encodeFrame(resp.dump(0));
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!conn->open.load())
        return;
    if (!sendAll(conn->fd, frame))
        conn->open.store(false);
}

} // namespace contest
