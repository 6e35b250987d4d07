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
    dispatcherThread = std::thread([this] { dispatcherLoop(); });
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
        auto conn = std::make_shared<Connection>();
        conn->fd = client;
        connectionsAccepted.fetch_add(1);
        std::lock_guard<std::mutex> lock(connMu);
        connections.push_back(conn);
        readerThreads.emplace_back(
            [this, conn] { readerLoop(conn); });
    }
    drainAndStop();
}

void
ContestServer::drainAndStop()
{
    // 1. Stop accepting (the accept loop has already exited; close
    //    the listening socket so connect() now fails fast).
    closeFd(listenFd);
    listenFd = -1;

    // 2. Wake everything that may be waiting: the dispatcher drains
    //    the remaining admission queue, readers waiting for queue
    //    space give up and refuse their request.
    {
        std::lock_guard<std::mutex> lock(qMu);
        qCv.notify_all();
        spaceCv.notify_all();
    }
    if (dispatcherThread.joinable())
        dispatcherThread.join();

    // 3. Wait for every dispatched simulation to finish.
    {
        std::unique_lock<std::mutex> lock(inFlightMu);
        inFlightCv.wait(lock, [this] { return inFlight == 0; });
    }

    // 4. Ack the shutdown request(s) now that the drain is complete.
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

    // 5. Unblock every reader (a blocked recv() returns once its
    //    socket is shut down) and join them.
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
    {
        std::lock_guard<std::mutex> lock(connMu);
        for (const ConnPtr &conn : connections)
            closeFd(conn->fd);
        connections.clear();
    }
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
    conn->open.store(false);
    // The connection is dead (EOF, error, or a poisoned stream);
    // shut it down so the peer sees EOF instead of a silent stall.
    // The fd itself is closed by drainAndStop, which still owns it.
    ::shutdown(conn->fd, SHUT_RDWR);
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
      default:
        admit(conn, std::move(req));
        return;
    }
}

void
ContestServer::admit(const ConnPtr &conn, ServeRequest req)
{
    Job job;
    job.conn = conn;
    job.queuedAt = SimTimeline::now();
    {
        std::unique_lock<std::mutex> lock(qMu);
        spaceCv.wait(lock, [this] {
            return queue.size() < opts.admissionDepth
                   || draining.load();
        });
        if (draining.load()) {
            requestsRefused.fetch_add(1);
            lock.unlock();
            respond(conn,
                    serveErrorResponse(
                        req.id,
                        "server is draining; request refused"));
            return;
        }
        job.req = std::move(req);
        queue.push_back(std::move(job));
        qCv.notify_one();
    }
}

void
ContestServer::dispatcherLoop()
{
    for (;;) {
        std::vector<Job> batch;
        {
            std::unique_lock<std::mutex> lock(qMu);
            qCv.wait(lock, [this] {
                return !queue.empty() || draining.load();
            });
            if (queue.empty() && draining.load())
                break;
            // Take everything admitted so far as one batch: a burst
            // of requests costs one dispatcher wakeup, not one per
            // request.
            while (!queue.empty()) {
                batch.push_back(std::move(queue.front()));
                queue.pop_front();
            }
            spaceCv.notify_all();
        }
        admissionBatches.fetch_add(1);
        std::uint64_t prev = maxBatch.load();
        while (batch.size() > prev
               && !maxBatch.compare_exchange_weak(prev,
                                                  batch.size())) {
        }
        {
            std::lock_guard<std::mutex> lock(inFlightMu);
            inFlight += batch.size();
        }
        for (Job &job : batch) {
            auto shared = std::make_shared<Job>(std::move(job));
            pool.post([this, shared] {
                execute(*shared);
                std::lock_guard<std::mutex> lock(inFlightMu);
                --inFlight;
                inFlightCv.notify_all();
            });
        }
    }
}

void
ContestServer::execute(const Job &job)
{
    const ServeRequest &req = job.req;
    const auto startedAt = SimTimeline::now();
    JsonValue resp = serveOkResponse(req);
    // A single or contest request is warm unless it materialized its
    // result (the Runner ran the once-latch body for it): a twin that
    // waited on the latch, or a result an earlier request of any kind
    // materialized, reads warm.
    bool warm = false;
    bool materialized = false;
    bool failed = false;

    switch (req.kind) {
      case ServeRequest::Kind::Sleep: {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(req.sleepMs));
        resp.set("slept_ms",
                 JsonValue::number(
                     static_cast<double>(req.sleepMs)));
        break;
      }
      case ServeRequest::Kind::Single: {
        const LoggedRun &run =
            runner_->single(req.bench, coreConfigByName(req.core), 0,
                            &materialized);
        warm = !materialized;
        resp.set("time_ps",
                 JsonValue::number(static_cast<double>(
                     run.result.timePs.count())));
        resp.set("ipt", JsonValue::number(run.result.ipt));
        resp.set("energy_nj",
                 JsonValue::number(run.result.energy.totalNj()));
        break;
      }
      case ServeRequest::Kind::Contest: {
        std::vector<CoreConfig> cores;
        cores.reserve(req.cores.size());
        for (const std::string &name : req.cores)
            cores.push_back(coreConfigByName(name));
        const ContestResult &result =
            runner_->contested(req.bench, cores, ContestConfig{},
                               req.traceLenOverride, &materialized);
        warm = !materialized;
        resp.set("time_ps",
                 JsonValue::number(
                     static_cast<double>(result.timePs.count())));
        resp.set("ipt", JsonValue::number(result.ipt));
        resp.set("lead_changes",
                 JsonValue::number(static_cast<double>(
                     result.leadChanges)));
        resp.set("energy_nj",
                 JsonValue::number(result.totalEnergyNj()));
        JsonValue lead = JsonValue::array();
        for (double f : result.leadFraction)
            lead.push(JsonValue::number(f));
        resp.set("lead_fraction", std::move(lead));
        break;
      }
      case ServeRequest::Kind::Experiment: {
        const ExperimentInfo *info =
            ExperimentRegistry::instance().find(req.experiment);
        if (info == nullptr || !info->inSuite) {
            failed = true;
            resp = serveErrorResponse(
                req.id, info == nullptr
                            ? "unknown experiment '"
                                  + req.experiment + "'"
                            : "experiment '" + req.experiment
                                  + "' is standalone-only and "
                                    "cannot be served");
            break;
        }
        ArtifactSink sink("", false);
        ExperimentContext ctx{*runner_, sink, *info};
        info->fn(ctx);
        JsonValue artifacts = JsonValue::array();
        for (const FigureArtifact &a : sink.emitted())
            artifacts.push(a.toJson());
        resp.set("artifacts", std::move(artifacts));
        break;
      }
      default:
        failed = true;
        resp = serveErrorResponse(req.id,
                                  "request kind cannot be executed "
                                  "by a pool worker");
        break;
    }

    const auto endedAt = SimTimeline::now();
    if (!failed) {
        if (warm)
            warmHits.fetch_add(1);
        JsonValue timing = JsonValue::object();
        timing.set("queue_ms", JsonValue::number(msBetween(
                                   job.queuedAt, startedAt)));
        timing.set("run_ms",
                   JsonValue::number(msBetween(startedAt, endedAt)));
        timing.set("warm", JsonValue::boolean(warm));
        resp.set("timing", std::move(timing));
        requestsOk.fetch_add(1);
    } else {
        requestsFailed.fetch_add(1);
    }
    respond(job.conn, resp);
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
        std::lock_guard<std::mutex> lock(qMu);
        server.set("queue_depth",
                   JsonValue::number(
                       static_cast<double>(queue.size())));
    }
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

    JsonValue admission = JsonValue::object();
    admission.set("batches",
                  JsonValue::number(static_cast<double>(
                      admissionBatches.load())));
    admission.set("max_batch",
                  JsonValue::number(
                      static_cast<double>(maxBatch.load())));
    server.set("admission", std::move(admission));

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
