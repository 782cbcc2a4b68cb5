#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/target_stats.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/logging.hpp"
#include "workloads/suite.hpp"

namespace bpnsp::serve {

namespace {

/** Request-size sanity bound: longer traces are refused up front. */
constexpr uint64_t kMaxServeInstructions = 2000000000ull;

/** Reply-size bound on BranchStats rows (frames are <= 16 MiB). */
constexpr uint32_t kMaxBranchRows = 65536;

/** poll() tick so quit/drain flags are noticed without wire traffic. */
constexpr int kPollTimeoutMs = 200;

obs::Counter &
serveRequests()
{
    static obs::Counter &c = obs::counter("serve.requests");
    return c;
}

obs::Counter &
serveAccepted()
{
    static obs::Counter &c = obs::counter("serve.accepted");
    return c;
}

obs::Counter &
serveRejected()
{
    static obs::Counter &c = obs::counter("serve.rejected");
    return c;
}

obs::Counter &
serveCompleted()
{
    static obs::Counter &c = obs::counter("serve.completed");
    return c;
}

obs::Counter &
serveFramesCorrupt()
{
    static obs::Counter &c = obs::counter("serve.frames_corrupt");
    return c;
}

obs::Gauge &
queueDepthGauge()
{
    static obs::Gauge &g = obs::gauge("serve.queue_depth");
    return g;
}

obs::Counter &
serveShed()
{
    static obs::Counter &c = obs::counter("serve.shed");
    return c;
}

obs::Counter &
serveExpired()
{
    static obs::Counter &c = obs::counter("serve.expired");
    return c;
}

/** mmap'd reader LRU cap (open trace store readers). */
constexpr size_t kMaxOpenReaders = 32;

/** Execute time of every request, the retry-after hint's rate. */
obs::Histogram &
serveExecNs()
{
    static obs::Histogram &h = obs::histogram("serve.exec_ns");
    return h;
}

/**
 * Per-request-type latency histograms (accept-to-reply), alongside
 * the aggregate serve.request_ns: a slow BranchStats must not hide
 * inside a million fast Simulates. Handles resolved once.
 */
obs::Histogram &
requestNsForType(MessageType type)
{
    static obs::Histogram &sim =
        obs::histogram("serve.request_ns.simulate");
    static obs::Histogram &branchStats =
        obs::histogram("serve.request_ns.branch_stats");
    static obs::Histogram &materialize =
        obs::histogram("serve.request_ns.materialize");
    static obs::Histogram &other =
        obs::histogram("serve.request_ns.other");
    switch (type) {
      case MessageType::Simulate:
        return sim;
      case MessageType::BranchStats:
        return branchStats;
      case MessageType::Materialize:
        return materialize;
      default:
        return other;
    }
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Write all of `len` bytes to a non-blocking socket through the
 * shared EINTR-audited helper (protocol.hpp). The 5 s bound is per
 * wait-for-writability: a peer that stays unwritable that long is
 * wedged and the connection is abandoned — but a signal interrupting
 * the wait restarts it instead of being mistaken for a wedge, which
 * used to drop the connection.
 */
bool
sendAll(int fd, const uint8_t *bytes, size_t len)
{
    return writeAllFd(fd, bytes, len, /*poll_timeout_ms=*/5000).ok();
}

/** The corpus key of a request's trace (the input index is valid). */
TraceCacheKey
corpusKeyFor(const Workload &workload, const ServeRequest &request)
{
    const WorkloadInput &input = workload.inputs.at(request.inputIdx);
    return {workload.name, input.label, input.seed, request.instructions};
}

void
setNonBlocking(int fd)
{
    // Sockets come from accept()/socket() moments earlier; fcntl on
    // them cannot meaningfully fail, but stay defensive.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

/** One live client connection (owned by the io thread). */
struct ServeServer::Conn
{
    int fd = -1;
    std::vector<uint8_t> inbuf;   ///< unparsed bytes, frame-aligned
    std::mutex writeMu;           ///< serializes reply frames
    std::atomic<bool> open{true};
};

/** One admitted request waiting for (or owned by) a worker. */
struct ServeServer::Pending
{
    std::shared_ptr<Conn> conn;
    uint64_t requestId = 0;
    ServeRequest request;
    uint64_t enqueuedNs = 0;
    uint64_t deadlineNs = 0;  ///< absolute expiry (0 = none)
};

ServeServer::ServeServer(ServeConfig config)
    : cfg(std::move(config))
{
}

ServeServer::~ServeServer()
{
    if (started && !stopped)
        stop();
}

Status
ServeServer::start()
{
    if (started)
        return Status::invalidArgument("server already started");
    if (cfg.socketPath.empty())
        return Status::invalidArgument("serve: socket path required");
    if (cfg.traceCacheDir.empty())
        return Status::invalidArgument(
            "serve: trace cache directory required");
    if (cfg.workers < 1 || cfg.workers > kMaxServeWorkers)
        return Status::invalidArgument(
            "serve: worker count " + std::to_string(cfg.workers) +
            " outside [1, " + std::to_string(kMaxServeWorkers) + "]");
    if (cfg.queueDepth == 0)
        return Status::invalidArgument(
            "serve: queue depth must be at least 1");

    struct sockaddr_un addr;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument(
            "serve: socket path too long: " + cfg.socketPath);

    // The server and the canonical runWorkloadTrace() cold path must
    // agree on the corpus directory, or generated traces would publish
    // somewhere the server never looks.
    setTraceCacheDir(cfg.traceCacheDir);
    cache = std::make_unique<TraceCache>(cfg.traceCacheDir);
    workloadsCatalog = allWorkloads();

    // UNIX-domain listener. The bound name is daemon-owned: a stale
    // socket file from a previous (dead) instance is removed, exactly
    // like the trace cache GCs its orphaned staging files.
    const int ufd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ufd < 0)
        return Status::ioError(std::string("serve: socket(): ") +
                               std::strerror(errno));
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg.socketPath.c_str());
    if (::bind(ufd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(ufd, 128) != 0) {
        const Status st = Status::ioError(
            "serve: bind/listen on " + cfg.socketPath + ": " +
            std::strerror(errno));
        ::close(ufd);
        return st;
    }
    listenFd = ufd;

    if (::pipe(wakePipe) != 0)
        return Status::ioError(std::string("serve: pipe(): ") +
                               std::strerror(errno));
    setNonBlocking(wakePipe[0]);
    setNonBlocking(wakePipe[1]);

    started = true;
    acceptingFlag.store(true);
    quitFlag.store(false);
    ioThread = std::thread([this] { ioLoop(); });
    workerThreads.reserve(cfg.workers);
    for (unsigned i = 0; i < cfg.workers; ++i)
        workerThreads.emplace_back([this] { workerLoop(); });

    static obs::Gauge &workersGauge = obs::gauge("serve.workers");
    workersGauge.set(static_cast<double>(cfg.workers));
    {
        // Register the load gauges at zero, so a Stats probe of an
        // idle server already carries them.
        std::lock_guard<std::mutex> lock(queueMu);
        updateQueueGaugesLocked();
    }
    inform("serving on ", cfg.socketPath, " (", cfg.workers,
           " workers, queue depth ", cfg.queueDepth, ")");
    return Status();
}

void
ServeServer::drain()
{
    if (!started || stopped)
        return;
    static obs::Counter &drains = obs::counter("serve.drains");
    drains.inc();

    // Phase 1: stop admitting. The io thread keeps running so replies
    // to in-flight requests still go out, but the listener closes
    // and every newly parsed request is refused.
    acceptingFlag.store(false);
    {
        const uint8_t byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
    }

    // Phase 2: wait for the queue to empty and in-flight work to
    // finish — the whole point of a graceful drain.
    {
        std::unique_lock<std::mutex> lock(queueMu);
        idleCv.wait(lock, [this] {
            return queue.empty() && inFlight == 0;
        });
    }

    // Phase 3: tear the machinery down.
    quitFlag.store(true);
    queueCv.notify_all();
    {
        const uint8_t byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
    }
    for (std::thread &t : workerThreads)
        t.join();
    workerThreads.clear();
    if (ioThread.joinable())
        ioThread.join();

    if (listenFd >= 0)
        ::close(listenFd);
    listenFd = -1;
    ::unlink(cfg.socketPath.c_str());
    ::close(wakePipe[0]);
    ::close(wakePipe[1]);
    wakePipe[0] = wakePipe[1] = -1;

    {
        std::lock_guard<std::mutex> lock(readersMu);
        readers.clear();
        genMutexes.clear();
    }
    stopped = true;
}

void
ServeServer::stop()
{
    if (!started || stopped)
        return;
    // The hard cut: every in-flight request's token chains to this
    // one, so replay/generation loops unwind at their next poll; the
    // drain below then completes quickly.
    stopToken.requestCancel(CancelCause::User);
    drain();
}

// --- io thread -------------------------------------------------------

void
ServeServer::ioLoop()
{
    std::vector<struct pollfd> pfds;
    while (!quitFlag.load()) {
        if (!acceptingFlag.load() && listenFd >= 0) {
            // Drain phase 1: close the listener so new connect()s are
            // refused by the OS while existing conns keep their
            // replies coming.
            ::close(listenFd);
            listenFd = -1;
            ::unlink(cfg.socketPath.c_str());
        }

        pfds.clear();
        pfds.push_back({wakePipe[0], POLLIN, 0});
        const bool listening = listenFd >= 0;
        if (listening)
            pfds.push_back({listenFd, POLLIN, 0});
        const size_t connBase = pfds.size();
        for (const auto &conn : conns)
            pfds.push_back({conn->fd, POLLIN, 0});

        const int ready =
            ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll(): ", std::strerror(errno));
            break;
        }

        if ((pfds[0].revents & POLLIN) != 0) {
            uint8_t sink[64];
            while (::read(wakePipe[0], sink, sizeof(sink)) > 0) {
            }
        }

        if (listening && (pfds[1].revents & POLLIN) != 0)
            acceptOne();

        // Snapshot: readConn may close (and remove) connections.
        std::vector<std::shared_ptr<Conn>> readable;
        for (size_t i = connBase; i < pfds.size(); ++i) {
            if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                readable.push_back(conns[i - connBase]);
        }
        for (const auto &conn : readable)
            readConn(conn);
    }

    // Shutdown: close every connection. Workers are already gone (the
    // drain joins them before the io thread), so nobody writes.
    // closeConn() erases from conns, so walk a copy.
    const std::vector<std::shared_ptr<Conn>> remaining = conns;
    for (const auto &conn : remaining)
        closeConn(conn);
    conns.clear();
}

void
ServeServer::acceptOne()
{
    static obs::Counter &connections =
        obs::counter("serve.connections");
    static obs::Counter &acceptFailures =
        obs::counter("serve.accept_failures");

    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != ECONNABORTED && errno != EINTR)
            warn("serve: accept(): ", std::strerror(errno));
        return;
    }
    if (faultsim::evaluate("serve.accept.fail")) {
        // Injected transient accept failure: the client sees a
        // connection that opens and immediately closes, exactly like
        // an accept-queue overflow under real load.
        acceptFailures.inc();
        ::close(fd);
        return;
    }
    setNonBlocking(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns.push_back(std::move(conn));
    connections.inc();
}

void
ServeServer::readConn(const std::shared_ptr<Conn> &conn)
{
    static obs::Counter &connResets = obs::counter("serve.conn_resets");

    bool eof = false;
    uint8_t chunk[16384];
    while (conn->open.load()) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            conn->inbuf.insert(conn->inbuf.end(), chunk, chunk + n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        eof = true;   // orderly close or reset, either way: done
        break;
    }

    if (conn->open.load())
        parseFrames(conn);

    if (eof && conn->open.load()) {
        // A mid-frame disconnect leaves a partial frame in inbuf;
        // that is the peer's prerogative, not a protocol error.
        if (!conn->inbuf.empty())
            connResets.inc();
        closeConn(conn);
    } else if (!conn->open.load()) {
        closeConn(conn);
    }
}

void
ServeServer::parseFrames(const std::shared_ptr<Conn> &conn)
{
    while (conn->open.load() &&
           conn->inbuf.size() >= kFrameHeaderBytes) {
        FrameHeader header;
        Status st = parseFrameHeader(conn->inbuf.data(),
                                     conn->inbuf.size(), &header);
        if (!st.ok()) {
            // Bad magic / unsupported version / oversized length
            // prefix: the stream cannot be resynchronized, so answer
            // once and hang up.
            serveFramesCorrupt().inc();
            sendError(conn, 0, wireCodeFor(st), st.str());
            conn->open.store(false);
            return;
        }
        const size_t frameBytes = kFrameHeaderBytes + header.payloadLen;
        if (conn->inbuf.size() < frameBytes)
            return;   // wait for the rest of the frame

        std::vector<uint8_t> payload(
            conn->inbuf.begin() + kFrameHeaderBytes,
            conn->inbuf.begin() + frameBytes);
        conn->inbuf.erase(conn->inbuf.begin(),
                          conn->inbuf.begin() + frameBytes);

        if (faultsim::evaluate("serve.frame.corrupt")) {
            // Injected wire corruption: flip one payload bit (or the
            // expected checksum itself for empty payloads) so the
            // verify below must catch it.
            if (!payload.empty()) {
                const uint64_t draw =
                    faultsim::payloadDraw("serve.frame.corrupt");
                payload[draw % payload.size()] ^=
                    static_cast<uint8_t>(1u << (draw % 8));
            } else {
                header.payloadCrc ^= 1u;
            }
        }

        st = verifyFramePayload(header, payload.data());
        if (!st.ok()) {
            serveFramesCorrupt().inc();
            sendError(conn, header.requestId, WireCode::CorruptData,
                      st.str());
            conn->open.store(false);
            return;
        }

        const MessageType type =
            static_cast<MessageType>(header.type);
        if (!isRequestType(type)) {
            sendError(conn, header.requestId,
                      WireCode::InvalidArgument,
                      std::string("unexpected message type: ") +
                          messageTypeName(type));
            conn->open.store(false);
            return;
        }

        ServeRequest request;
        st = decodeRequestPayload(type, payload.data(),
                                  payload.size(), &request);
        if (!st.ok()) {
            // The checksum passed, so this is a malformed-but-intact
            // payload: reply and keep the connection (the framing is
            // still synchronized).
            serveRequests().inc();
            serveRejected().inc();
            sendError(conn, header.requestId, wireCodeFor(st),
                      st.str());
            continue;
        }

        if (type == MessageType::Ping) {
            // Pings answer from the io thread: they are the liveness
            // probe, so they must not queue behind real work.
            serveRequests().inc();
            serveAccepted().inc();
            ServeReply reply;
            reply.type = MessageType::PingReply;
            reply.serverInfo =
                "bpnsp-serve-v" + std::to_string(kProtocolVersion) +
                " workers=" + std::to_string(cfg.workers) +
                " queue=" + std::to_string(cfg.queueDepth);
            sendReply(conn, header.requestId, reply);
            serveCompleted().inc();
            continue;
        }

        if (type == MessageType::Stats) {
            // Live introspection answers from the io thread, exactly
            // like Ping: it never queues behind real work, never
            // touches the worker pool, and keeps answering while a
            // drain waits for in-flight requests — which is precisely
            // when an operator wants to watch the queue empty.
            static obs::Counter &statsRequests =
                obs::counter("serve.stats_requests");
            serveRequests().inc();
            serveAccepted().inc();
            statsRequests.inc();
            ServeReply reply;
            reply.type = MessageType::StatsReply;
            reply.statsJson = obs::renderStatsSnapshotJson();
            sendReply(conn, header.requestId, reply);
            serveCompleted().inc();
            continue;
        }

        admit(conn, header, std::move(request));
    }
}

/**
 * Retry-after hint: how long the backlog (queued plus in-flight)
 * takes to drain through the worker pool at the mean observed execute
 * time. A floor on client backoff, never a guarantee.
 */
uint32_t
ServeServer::retryAfterMsLocked() const
{
    const obs::Histogram &exec = serveExecNs();
    const double meanNs =
        exec.count() == 0 ? 0.0
                          : static_cast<double>(exec.sum()) /
                                static_cast<double>(exec.count());
    const double backlogMs = static_cast<double>(queue.size() + inFlight) /
                             cfg.workers * meanNs / 1e6;
    return static_cast<uint32_t>(std::clamp(backlogMs, 1.0, 30000.0));
}

void
ServeServer::updateQueueGaugesLocked()
{
    queueDepthGauge().set(static_cast<double>(queue.size()));
}

void
ServeServer::admit(const std::shared_ptr<Conn> &conn,
                   const FrameHeader &header, ServeRequest request)
{
    serveRequests().inc();

    if (!acceptingFlag.load()) {
        serveRejected().inc();
        sendError(conn, header.requestId, WireCode::Busy,
                  "server is draining");
        return;
    }

    Pending p;
    p.conn = conn;
    p.requestId = header.requestId;
    p.request = std::move(request);
    p.enqueuedNs = nowNs();
    if (p.request.deadlineMs != 0)
        p.deadlineNs =
            p.enqueuedNs +
            static_cast<uint64_t>(p.request.deadlineMs) * 1000000ull;

    bool full = false;
    uint32_t retryAfterMs = 0;
    {
        std::lock_guard<std::mutex> lock(queueMu);
        full = queue.size() >= cfg.queueDepth;
        if (full) {
            retryAfterMs = retryAfterMsLocked();
        } else {
            queue.push_back(std::move(p));
            updateQueueGaugesLocked();
        }
    }
    if (full) {
        serveRejected().inc();
        serveShed().inc();
        sendError(conn, header.requestId, WireCode::ResourceExhausted,
                  "admission queue full (" +
                      std::to_string(cfg.queueDepth) +
                      " requests); retry with backoff",
                  retryAfterMs);
        return;
    }
    queueCv.notify_one();
}

// --- workers ---------------------------------------------------------

void
ServeServer::workerLoop()
{
    for (;;) {
        Pending pending;
        if (!popRequest(&pending))
            return;   // quit
        execute(pending);
    }
}

/**
 * Deadline sweep (queueMu held): move every queued request whose
 * absolute deadline has passed into `expired`, so its expiry reply
 * goes out before the request costs a worker anything.
 */
void
ServeServer::sweepExpiredLocked(std::vector<Pending> *expired)
{
    const uint64_t now = nowNs();
    for (auto it = queue.begin(); it != queue.end();) {
        if (it->deadlineNs != 0 && now >= it->deadlineNs) {
            expired->push_back(std::move(*it));
            it = queue.erase(it);
        } else {
            ++it;
        }
    }
}

/**
 * Block until the queue hands this worker its oldest request (true)
 * or the server quits (false). Expired requests found while popping
 * are answered DEADLINE_EXCEEDED here, before any worker time is spent
 * on them.
 */
bool
ServeServer::popRequest(Pending *out)
{
    static obs::Histogram &queueWait =
        obs::histogram("serve.queue_wait_ns");

    for (;;) {
        bool popped = false;
        std::vector<Pending> expired;
        uint32_t retryAfterMs = 0;
        {
            std::unique_lock<std::mutex> lock(queueMu);
            queueCv.wait(lock, [this] {
                return quitFlag.load() || !queue.empty();
            });
            sweepExpiredLocked(&expired);
            if (!expired.empty())
                retryAfterMs = retryAfterMsLocked();

            if (!queue.empty()) {
                *out = std::move(queue.front());
                queue.pop_front();
                popped = true;
                ++inFlight;
                // serve.accepted counts requests handed to a worker:
                // queued work that is later swept was never accepted,
                // keeping shed + accepted <= requests additive.
                serveAccepted().inc();
            }
            updateQueueGaugesLocked();
            if (queue.empty() && inFlight == 0)
                idleCv.notify_all();
            if (!popped && expired.empty() && quitFlag.load())
                return false;
        }

        for (const Pending &p : expired) {
            serveRejected().inc();
            serveExpired().inc();
            sendError(p.conn, p.requestId, WireCode::DeadlineExceeded,
                      "deadline expired in the admission queue",
                      retryAfterMs);
        }
        if (!popped)
            continue;   // swept everything; wait for more work

        const uint64_t now = nowNs();
        queueWait.observe(now > out->enqueuedNs ? now - out->enqueuedNs
                                                : 0);
        return true;
    }
}

void
ServeServer::execute(const Pending &pending)
{
    static obs::Counter &stalls = obs::counter("serve.worker_stalls");
    static obs::Histogram &requestNs =
        obs::histogram("serve.request_ns");

    if (faultsim::evaluate("serve.worker.stall")) {
        // Injected worker stall: park this worker for a bounded,
        // cancellable moment. Under a drain the stop token cuts the
        // nap short, so a stalled pool can never hang shutdown.
        stalls.inc();
        CancelScope scope(stopToken);
        cancellableSleepMs(
            25 + faultsim::payloadDraw("serve.worker.stall") % 200);
    }

    const uint64_t execStartNs = nowNs();
    {
        // The request's own token, chained to stopToken so stop()
        // cuts it; the deadline is *absolute* from admission, so queue
        // wait already spent the budget — the deadline-propagation
        // contract at this hop.
        CancelToken token(&stopToken);
        if (pending.deadlineNs != 0) {
            const uint64_t now = nowNs();
            if (now >= pending.deadlineNs)
                token.requestCancel(CancelCause::Deadline);
            else
                token.setDeadlineAfterMs(
                    (pending.deadlineNs - now + 999999ull) / 1000000ull);
        }
        CancelScope scope(token);
        ServeReply reply;
        const Status st = runRequest(pending.request, &reply);
        if (st.ok())
            sendReply(pending.conn, pending.requestId, reply);
        else
            sendError(pending.conn, pending.requestId, wireCodeFor(st),
                      st.str());
    }
    const uint64_t execEndNs = nowNs();
    const uint64_t execDurNs =
        execEndNs > execStartNs ? execEndNs - execStartNs : 0;
    serveExecNs().observe(execDurNs);

    const uint64_t wall =
        execEndNs > pending.enqueuedNs ? execEndNs - pending.enqueuedNs
                                       : 0;
    requestNs.observe(wall);
    requestNsForType(pending.request.type).observe(wall);
    serveCompleted().inc();

    std::lock_guard<std::mutex> lock(queueMu);
    --inFlight;
    if (queue.empty() && inFlight == 0)
        idleCv.notify_all();
}

/**
 * Validate the request, open (or materialize) its trace, and run its
 * op into `reply`. A failed Status becomes the Error reply.
 */
Status
ServeServer::runRequest(const ServeRequest &request, ServeReply *reply)
{
    const Workload *workload = nullptr;
    Status st = validateRequest(request, &workload);
    if (!st.ok())
        return st;
    const std::shared_ptr<TraceStoreReader> reader =
        ensureReader(*workload, request, &st);
    if (reader == nullptr)
        return st;

    const TraceCacheKey key = corpusKeyFor(*workload, request);
    switch (request.type) {
      case MessageType::Simulate:
        return executeSimulate(request, key, *reader, reply);
      case MessageType::BranchStats:
        return executeBranchStats(request, key, *reader, reply);
      case MessageType::Materialize:
        reply->type = MessageType::MaterializeReply;
        reply->digest = traceCacheDigest(key);
        reply->records = reader->count();
        reply->path = cache->entryPath(key);
        return Status();
      default:
        // Unreachable: the io thread answers every other type.
        return Status::invalidArgument(std::string("no handler for ") +
                                       messageTypeName(request.type));
    }
}

/**
 * Replay records [first, first + count) of the entry into `sink`,
 * then end the sink. A CorruptData replay means the store changed
 * under its open mapping (or a fault spec fired): the entry is
 * quarantined and its reader dropped, so the next request regenerates
 * it instead of replaying the damage again.
 */
Status
ServeServer::replayTrace(const TraceCacheKey &key,
                         const TraceStoreReader &reader, uint64_t first,
                         uint64_t count, TraceSink &sink)
{
    const Status st = reader.replayRange(first, count, sink);
    if (st.code() == StatusCode::CorruptData) {
        cache->quarantine(key, st.str());
        dropReader(traceCacheDigest(key));
    }
    if (st.ok())
        sink.onEnd();   // replayRange never delivers the end
    return st;
}

Status
ServeServer::executeSimulate(const ServeRequest &request,
                             const TraceCacheKey &key,
                             const TraceStoreReader &reader,
                             ServeReply *reply)
{
    // One per Simulate replay: perfbench's serve.requests_per_batch
    // ledger entry reads it.
    static obs::Counter &batches = obs::counter("serve.batches");
    batches.inc();

    const uint64_t count = request.count == 0
                               ? reader.count() - request.first
                               : request.count;
    std::unique_ptr<BranchPredictor> predictor =
        makePredictor(request.predictor);
    PredictorSim sim(*predictor, /*collect_per_branch=*/false);
    const Status st = replayTrace(key, reader, request.first, count, sim);
    if (!st.ok())
        return st;
    reply->type = MessageType::SimulateReply;
    reply->delivered = count;
    reply->condExecs = sim.condExecs();
    reply->condMispreds = sim.condMispreds();
    reply->accuracyBits = doubleBits(sim.accuracy());
    return st;
}

Status
ServeServer::executeBranchStats(const ServeRequest &request,
                                const TraceCacheKey &key,
                                const TraceStoreReader &reader,
                                ServeReply *reply)
{
    std::unique_ptr<BranchPredictor> predictor =
        makePredictor(request.predictor);
    PredictorSim sim(*predictor, /*collect_per_branch=*/true);
    // The frontend rides the same replay pass so the target columns
    // are computed from exactly the records the direction columns saw.
    FrontendModel fe((FrontendConfig()));
    FanoutSink fanout({&sim, &fe});
    const Status st = replayTrace(key, reader, 0, reader.count(), fanout);
    if (!st.ok())
        return st;
    reply->type = MessageType::BranchStatsReply;
    reply->delivered = sim.instructions();
    reply->condExecs = sim.condExecs();
    reply->condMispreds = sim.condMispreds();
    for (const TargetClassRow &row : targetClassRows(fe))
        reply->targetClasses.push_back({static_cast<uint8_t>(row.cls),
                                        row.execs, row.targetMispreds});
    std::vector<BranchRow> rows;
    rows.reserve(sim.perBranch().size());
    for (const auto &[ip, c] : sim.perBranch())
        rows.push_back({ip, c.execs, c.mispreds, c.taken});
    // Deterministic order: most-mispredicted first, IP ascending on
    // ties (the H2P-ranking convention).
    std::sort(rows.begin(), rows.end(),
              [](const BranchRow &a, const BranchRow &b) {
                  if (a.mispreds != b.mispreds)
                      return a.mispreds > b.mispreds;
                  return a.ip < b.ip;
              });
    const uint32_t keep = std::min(
        request.topK == 0 ? kMaxBranchRows : request.topK,
        kMaxBranchRows);
    if (rows.size() > keep)
        rows.resize(keep);
    reply->branches = std::move(rows);
    return st;
}

// --- shared helpers --------------------------------------------------

void
ServeServer::sendReply(const std::shared_ptr<Conn> &conn,
                       uint64_t request_id, const ServeReply &reply)
{
    if (!conn->open.load())
        return;
    const std::vector<uint8_t> payload = encodeReplyPayload(reply);
    std::vector<uint8_t> frame;
    const Status st =
        encodeFrame(reply.type, request_id, payload, &frame);
    if (!st.ok()) {
        // A reply too large for one frame (pathological topK): degrade
        // to an error the client can act on.
        sendError(conn, request_id, WireCode::Internal, st.str());
        return;
    }
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!sendAll(conn->fd, frame.data(), frame.size()))
        conn->open.store(false);
}

void
ServeServer::sendError(const std::shared_ptr<Conn> &conn,
                       uint64_t request_id, WireCode code,
                       const std::string &message,
                       uint32_t retry_after_ms)
{
    if (!conn->open.load())
        return;
    ServeReply reply;
    reply.type = MessageType::Error;
    reply.code = code;
    reply.message = message;
    reply.retryAfterMs = retry_after_ms;
    const std::vector<uint8_t> payload = encodeReplyPayload(reply);
    std::vector<uint8_t> frame;
    if (!encodeFrame(MessageType::Error, request_id, payload, &frame)
             .ok())
        return;
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!sendAll(conn->fd, frame.data(), frame.size()))
        conn->open.store(false);
}

void
ServeServer::closeConn(const std::shared_ptr<Conn> &conn)
{
    conn->open.store(false);
    if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
    }
    conns.erase(std::remove(conns.begin(), conns.end(), conn),
                conns.end());
}

const Workload *
ServeServer::findServableWorkload(const std::string &name) const
{
    for (const Workload &w : workloadsCatalog) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

Status
ServeServer::validateRequest(const ServeRequest &request,
                             const Workload **workload_out)
{
    // findWorkload()/makePredictor() fatal() on unknown names — fine
    // for CLI typos, lethal for a daemon fed client bytes. Everything
    // client-controlled is validated here first.
    const Workload *w = findServableWorkload(request.workload);
    if (w == nullptr)
        return Status::invalidArgument("unknown workload: \"" +
                                       request.workload + "\"");
    *workload_out = w;
    if (request.inputIdx >= w->inputs.size())
        return Status::invalidArgument(
            "input index " + std::to_string(request.inputIdx) +
            " out of range for " + w->name + " (" +
            std::to_string(w->inputs.size()) + " inputs)");
    if (request.instructions == 0 ||
        request.instructions > kMaxServeInstructions)
        return Status::invalidArgument(
            "instruction count " +
            std::to_string(request.instructions) +
            " outside [1, " + std::to_string(kMaxServeInstructions) +
            "]");

    if (request.type == MessageType::Simulate ||
        request.type == MessageType::BranchStats) {
        static const std::vector<std::string> known =
            knownPredictorNames();
        if (std::find(known.begin(), known.end(), request.predictor) ==
            known.end())
            return Status::invalidArgument("unknown predictor: \"" +
                                           request.predictor + "\"");
    }

    if (request.type == MessageType::Simulate) {
        if (request.first > request.instructions)
            return Status::invalidArgument(
                "slice start " + std::to_string(request.first) +
                " past the " + std::to_string(request.instructions) +
                "-record trace");
        if (request.count != 0 &&
            request.first + request.count > request.instructions)
            return Status::invalidArgument(
                "slice [" + std::to_string(request.first) + ", " +
                std::to_string(request.first + request.count) +
                ") past the " + std::to_string(request.instructions) +
                "-record trace");
    }
    return Status();
}

std::shared_ptr<TraceStoreReader>
ServeServer::ensureReader(const Workload &workload,
                          const ServeRequest &request, Status *status)
{
    static obs::Counter &generated =
        obs::counter("serve.generated_traces");
    static obs::Gauge &openReaders = obs::gauge("serve.open_readers");

    const TraceCacheKey key = corpusKeyFor(workload, request);
    const std::string digest = traceCacheDigest(key);

    {
        std::lock_guard<std::mutex> lock(readersMu);
        auto it = readers.find(digest);
        if (it != readers.end()) {
            it->second.lastUse = ++readerClock;
            *status = Status();
            return it->second.reader;
        }
    }

    // Serialize cold-open (and cold-generation) per digest so N
    // concurrent requests for the same trace cost one generation, not
    // N. A per-digest mutex, not the readers lock: generating takes
    // seconds and must not block unrelated digests.
    std::shared_ptr<std::mutex> gen;
    {
        std::lock_guard<std::mutex> lock(readersMu);
        auto &slot = genMutexes[digest];
        if (slot == nullptr)
            slot = std::make_shared<std::mutex>();
        gen = slot;
    }
    std::lock_guard<std::mutex> genLock(*gen);

    {
        std::lock_guard<std::mutex> lock(readersMu);
        auto it = readers.find(digest);
        if (it != readers.end()) {
            it->second.lastUse = ++readerClock;
            *status = Status();
            return it->second.reader;
        }
    }

    if (!cache->contains(key)) {
        // Cold trace: materialize through the canonical path, which
        // records and atomically publishes. No sinks — this pass
        // exists only to populate the corpus.
        runWorkloadTrace(workload, request.inputIdx, {},
                         request.instructions);
        const Status cancelled = currentCancelToken()->check();
        if (!cancelled.ok()) {
            *status = cancelled;
            return nullptr;
        }
        if (!cache->contains(key)) {
            // The capture or the publish failed (the runner warned
            // why); the next request generates again.
            *status = Status::busy("trace generation for " + digest +
                                   " published no corpus entry; retry");
            return nullptr;
        }
        generated.inc();
    }

    std::shared_ptr<TraceStoreReader> shared =
        cache->openVerified(key, status);
    if (shared == nullptr)
        return nullptr;
    {
        std::lock_guard<std::mutex> lock(readersMu);
        readers[digest] = ReaderEntry{shared, ++readerClock};
        // LRU-cap the open mmaps; in-flight replays keep their reader
        // alive through their shared_ptr.
        while (readers.size() > kMaxOpenReaders) {
            auto victim = readers.begin();
            for (auto it = readers.begin(); it != readers.end(); ++it) {
                if (it->second.lastUse < victim->second.lastUse)
                    victim = it;
            }
            readers.erase(victim);
        }
        openReaders.set(static_cast<double>(readers.size()));
    }
    *status = Status();
    return shared;
}

void
ServeServer::dropReader(const std::string &digest)
{
    static obs::Gauge &openReaders = obs::gauge("serve.open_readers");
    std::lock_guard<std::mutex> lock(readersMu);
    readers.erase(digest);
    openReaders.set(static_cast<double>(readers.size()));
}

} // namespace bpnsp::serve
