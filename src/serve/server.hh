/**
 * @file
 * The contest service: a long-lived server that keeps the core
 * palette, the synthetic traces, the Runner's memo tables, and the
 * on-disk result cache hot in one process and serves simulation,
 * contest, and experiment requests over a Unix or loopback-TCP
 * socket.
 *
 * Threading model, in order of a request's life:
 *
 *  - an accept thread poll()s the listening socket (and a self-pipe
 *    used for shutdown wakeup), joins the reader threads that have
 *    exited, and spawns one reader thread per connection;
 *  - the reader decodes frames, parses and validates the request,
 *    and answers ping/stats/shutdown inline, as well as any single
 *    or contest request whose result the Runner already holds (a
 *    warm hit never waits for a worker);
 *  - every other request goes from the reader straight into the
 *    ThreadPool, whose `--jobs` workers execute simulations through
 *    the shared Runner (memoized, disk cached). At most
 *    `--admission-depth` jobs are in flight, queued plus running; a
 *    reader whose request would exceed that blocks (its connection,
 *    not the server) until a job finishes;
 *  - replies are written under the connection's write mutex, so
 *    replies interleave per frame, never mid-frame. A reply may
 *    overtake an earlier request's on the same connection (a warm
 *    hit passes a simulation); clients match replies by `id`;
 *  - when a connection ends, its reader closes the fd and drops the
 *    connection, so connections do not hold fds or threads past
 *    their life.
 *
 * Graceful drain (SIGTERM or a `shutdown` request): stop accepting,
 * refuse new work with a structured error, wait for in-flight jobs,
 * ack the shutdown request(s), then close every connection.
 * requestShutdown() is async-signal-safe: it performs one atomic
 * store and one pipe write; all condition-variable traffic happens
 * on ordinary threads.
 */

#ifndef CONTEST_SERVE_SERVER_HH
#define CONTEST_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "harness/result_cache.hh"
#include "harness/runner.hh"
#include "harness/sim_timeline.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"

namespace contest
{

/** Configuration of one ContestServer. */
struct ServeOptions
{
    /** Where to listen (unix path, or loopback TCP; port 0 binds an
     *  ephemeral port readable from target() after start). */
    ServeTarget target;
    /** What every request runs under; jobs counts the workers. */
    RunSettings settings;
    /** Persistent result-cache directory; empty disables it. */
    std::string cacheDir;
    /** Most simulation jobs in flight at once, queued plus
     *  running. A reader whose request would exceed it blocks until
     *  a job finishes; warm hits and ping/stats/shutdown never
     *  count. */
    std::size_t admissionDepth = 64;
    /** Suppress the startup/shutdown log lines (tests). */
    bool quiet = false;
};

/** The long-lived contest service. */
class ContestServer
{
  public:
    explicit ContestServer(ServeOptions options);
    ~ContestServer();

    ContestServer(const ContestServer &) = delete;
    ContestServer &operator=(const ContestServer &) = delete;

    /**
     * Bind the listening socket and launch the accept thread.
     * @return false with @p error filled when the socket cannot be
     * bound.
     */
    bool start(std::string *error);

    /** The resolved listen target (ephemeral TCP ports filled in);
     *  valid after start(). */
    const ServeTarget &target() const { return opts.target; }

    /**
     * Begin a graceful drain. Async-signal-safe (one atomic store
     * plus one self-pipe write), so a SIGTERM handler may call it
     * directly. Idempotent.
     */
    void requestShutdown();

    /** Block until the drain completes and every thread has been
     *  joined. Returns immediately if start() was never called. */
    void waitUntilStopped();

    /** The shared runner (exposed so in-process harnesses can check
     *  simulation counters without a stats round-trip). */
    Runner &runner() { return runner_; }

  private:
    /** One client connection. open flips false on read error, EOF,
     *  or drain; the write mutex keeps frames from interleaving. The
     *  reader closes fd (under both connMu and writeMu) as it exits. */
    struct Connection
    {
        int fd = -1;
        std::mutex writeMu;
        std::atomic<bool> open{true};
    };
    using ConnPtr = std::shared_ptr<Connection>;

    /** One admitted unit of simulation work. */
    struct Job
    {
        ConnPtr conn;
        ServeRequest req;
        SimTimeline::Clock::time_point queuedAt;
    };

    void acceptLoop();
    /** Join the reader threads that have exited. */
    void joinExitedReaders();
    void readerLoop(ConnPtr conn);
    void handleFrame(const ConnPtr &conn, const std::string &payload);
    /** Answer a single or contest request on the reader thread if
     *  the Runner already holds its result; false if it does not. */
    bool answerIfReady(const ConnPtr &conn, const ServeRequest &req);
    /** Post a job to the pool once fewer than admissionDepth are in
     *  flight, or refuse it while draining. */
    void admit(const ConnPtr &conn, ServeRequest req);
    /** Execute one admitted job on a pool worker. */
    void execute(const Job &job);
    /** Add the timing block to a successful reply, count it, and
     *  send it. */
    void respondOk(const ConnPtr &conn, JsonValue resp,
                   SimTimeline::Clock::time_point queuedAt,
                   SimTimeline::Clock::time_point startedAt,
                   bool warm);
    void respond(const ConnPtr &conn, const JsonValue &resp);
    JsonValue statsJson(const ServeRequest &req);
    /** Run the drain protocol; called by the accept thread once
     *  draining is observed. */
    void drainAndStop();

    ServeOptions opts;
    /** settings.jobs + 1: the pool counts a calling thread that runs
     *  tasks beside its workers, and the server never donates one,
     *  so this leaves settings.jobs worker threads. */
    ThreadPool pool;
    std::unique_ptr<ResultCache> cache;
    SimTimeline timeline;
    Runner runner_;

    int listenFd = -1;
    int wakePipe[2] = {-1, -1};
    std::atomic<bool> draining{false};
    bool started = false;

    std::thread acceptThread;

    /** Open connections, their reader threads (running or exited),
     *  and the ids of the exited ones, which the accept thread joins
     *  before it spawns the next reader. */
    std::mutex connMu;
    std::vector<ConnPtr> connections;
    std::vector<std::thread> readerThreads;
    std::vector<std::thread::id> exitedReaders;

    /** Admitted jobs, queued in the pool or running; readers wait on
     *  inFlightCv for room, the drain for zero. */
    std::mutex inFlightMu;
    std::condition_variable inFlightCv;
    std::size_t inFlight = 0;

    /** Connections owed a shutdown ack (sent after the drain). */
    std::mutex ackMu;
    std::vector<std::pair<ConnPtr, JsonValue>> shutdownAcks;

    /** @name Telemetry (reported by `stats`) */
    /** @{ */
    std::atomic<std::uint64_t> connectionsAccepted{0};
    std::atomic<std::uint64_t> requestsTotal{0};
    std::atomic<std::uint64_t> requestsOk{0};
    std::atomic<std::uint64_t> requestsFailed{0};
    std::atomic<std::uint64_t> requestsRefused{0};
    std::atomic<std::uint64_t> warmHits{0};
    /** @} */
};

} // namespace contest

#endif // CONTEST_SERVE_SERVER_HH
