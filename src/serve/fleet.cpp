#include "serve/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/client.hpp"        // isIdempotentRequest
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/signals.hpp"

namespace bpnsp::serve {

namespace {

/** Monitor tick: heartbeat checks + respawn deadlines. */
constexpr int kMonitorTickMs = 50;

obs::Counter &
fleetDeaths()
{
    static obs::Counter &c = obs::counter("serve.fleet.worker_deaths");
    return c;
}

obs::Counter &
fleetRespawns()
{
    static obs::Counter &c = obs::counter("serve.fleet.respawns");
    return c;
}

obs::Counter &
fleetBreakerTrips()
{
    static obs::Counter &c = obs::counter("serve.fleet.breaker_trips");
    return c;
}

obs::Counter &
fleetWedgeKills()
{
    static obs::Counter &c = obs::counter("serve.fleet.wedge_kills");
    return c;
}

obs::Counter &
fleetUnavailable()
{
    static obs::Counter &c = obs::counter("serve.fleet.unavailable");
    return c;
}

obs::Counter &
fleetRouted()
{
    static obs::Counter &c = obs::counter("serve.fleet.routed");
    return c;
}

obs::Counter &
fleetHedges()
{
    static obs::Counter &c = obs::counter("serve.hedges");
    return c;
}

obs::Counter &
fleetHedgeWins()
{
    static obs::Counter &c = obs::counter("serve.hedge_wins");
    return c;
}

obs::Counter &
fleetExpired()
{
    static obs::Counter &c = obs::counter("serve.expired");
    return c;
}

uint64_t
steadyMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Heartbeat-file age in ms (UINT64_MAX when unreadable). */
uint64_t
heartbeatAgeMs(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return UINT64_MAX;
    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    const int64_t age =
        (now.tv_sec - st.st_mtim.tv_sec) * 1000 +
        (now.tv_nsec - st.st_mtim.tv_nsec) / 1000000;
    return age < 0 ? 0 : static_cast<uint64_t>(age);
}

/** Create-or-touch a heartbeat file (mtime = now). */
void
touchFile(const std::string &path)
{
    if (::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) == 0)
        return;
    if (FILE *f = std::fopen(path.c_str(), "w"))
        std::fclose(f);
}

/** Blocking connect to a worker's UNIX socket (-1 on failure). */
int
connectWorker(const std::string &path)
{
    struct sockaddr_un addr;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Read one whole reply frame (header + payload) from `fd` into
 * `frame`, each wait bounded by `timeout_ms` (-1 = forever). False on
 * any failure; the fd is left for the caller to close.
 */
bool
readWholeFrame(int fd, std::vector<uint8_t> *frame, FrameHeader *header,
               int timeout_ms)
{
    uint8_t head[kFrameHeaderBytes];
    if (!readExactFd(fd, head, sizeof(head), timeout_ms).ok())
        return false;
    if (!parseFrameHeader(head, sizeof(head), header).ok())
        return false;
    frame->assign(kFrameHeaderBytes + header->payloadLen, 0);
    std::memcpy(frame->data(), head, kFrameHeaderBytes);
    if (header->payloadLen > 0 &&
        !readExactFd(fd, frame->data() + kFrameHeaderBytes,
                     header->payloadLen, timeout_ms)
             .ok())
        return false;
    return true;
}

/**
 * Best-effort Cancel for `target_request_id` on a worker connection
 * that is about to be abandoned — the worker can drop the duplicate
 * from its queue (or cancel it mid-run) instead of finishing it for
 * nobody. The CancelReply is never read; the close that follows takes
 * care of it.
 */
void
sendCancelFrame(int fd, uint64_t target_request_id)
{
    ServeRequest cancel;
    cancel.type = MessageType::Cancel;
    cancel.cancelTargetId = target_request_id;
    std::vector<uint8_t> frame;
    if (encodeFrame(MessageType::Cancel, target_request_id,
                    encodeRequestPayload(cancel), &frame)
            .ok())
        writeAllFd(fd, frame.data(), frame.size(), 1000);
}

} // namespace

unsigned
fleetShardFor(const std::string &workload, uint32_t input_idx,
              uint64_t instructions, unsigned workers)
{
    if (workers <= 1)
        return 0;
    std::string key = workload;
    key += ':';
    key += std::to_string(input_idx);
    key += ':';
    key += std::to_string(instructions);
    return static_cast<unsigned>(
        fnv1a(key.data(), key.size()) % workers);
}

/** Supervision state of one shard (under shardsMu). */
struct FleetSupervisor::Shard
{
    uint32_t index = 0;
    pid_t pid = 0;                 ///< 0 = no live worker
    uint8_t state = ShardHealth::Respawning;
    uint32_t restarts = 0;
    uint32_t deaths = 0;
    uint32_t breakerTrips = 0;
    uint64_t spawnedAtMs = 0;
    uint64_t respawnAtMs = 0;      ///< Respawning: next spawn time
    uint64_t cooldownUntilMs = 0;  ///< Degraded: breaker re-probe time
    uint64_t backoffMs = 0;        ///< current respawn backoff
    std::deque<uint64_t> deathTimesMs;   ///< breaker window
};

FleetSupervisor::FleetSupervisor(FleetConfig config)
    : cfg(std::move(config))
{
    if (cfg.workers == 0)
        cfg.workers = 1;
    if (cfg.heartbeatMs == 0)
        cfg.heartbeatMs = 50;
    if (cfg.breakerDeaths == 0)
        cfg.breakerDeaths = 1;
}

FleetSupervisor::~FleetSupervisor()
{
    if (started && !stopped)
        drain();
}

std::string
FleetSupervisor::workerSocketPath(unsigned shard) const
{
    return cfg.socketPath + ".w" + std::to_string(shard);
}

std::string
FleetSupervisor::heartbeatPath(unsigned shard) const
{
    return workerSocketPath(shard) + ".hb";
}

Status
FleetSupervisor::start()
{
    if (started)
        return Status::invalidArgument("fleet already started");
    if (cfg.socketPath.empty())
        return Status::invalidArgument("fleet: socket path required");
    if (cfg.workerCommand.empty())
        return Status::invalidArgument(
            "fleet: worker command required (argv[0] = the "
            "bpnsp_served binary)");

    childPipeFd = signals::installChildNotifyPipe();
    if (childPipeFd < 0)
        return Status::ioError("fleet: SIGCHLD self-pipe failed");

    // Public listener, bound before any worker spawns so a client
    // that connects during startup parks in the accept queue instead
    // of failing.
    struct sockaddr_un addr;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument(
            "fleet: socket path too long: " + cfg.socketPath);
    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        return Status::ioError(std::string("fleet: socket(): ") +
                               std::strerror(errno));
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg.socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 128) != 0) {
        const Status st = Status::ioError(
            "fleet: bind/listen on " + cfg.socketPath + ": " +
            std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return st;
    }

    {
        std::lock_guard<std::mutex> lock(shardsMu);
        shards.resize(cfg.workers);
        for (unsigned i = 0; i < cfg.workers; ++i) {
            shards[i].index = i;
            spawnShardLocked(shards[i], /*respawn=*/false);
        }
    }

    started = true;
    quitFlag.store(false);
    acceptingFlag.store(true);
    monitorThread = std::thread([this] { monitorLoop(); });
    acceptThread = std::thread([this] { acceptLoop(); });

    static obs::Gauge &workersGauge =
        obs::gauge("serve.fleet.workers");
    workersGauge.set(static_cast<double>(cfg.workers));
    inform("fleet serving on ", cfg.socketPath, " (", cfg.workers,
           " worker process(es), heartbeat ", cfg.heartbeatMs,
           " ms, stall bound ", cfg.stallMs, " ms)");
    return Status();
}

void
FleetSupervisor::spawnShardLocked(Shard &shard, bool respawn)
{
    const std::string wsock = workerSocketPath(shard.index);
    const std::string hb = heartbeatPath(shard.index);

    // A stale socket from the dead worker must go before the fresh
    // worker binds; the heartbeat baseline is "spawn time" so the
    // watchdog never reaps a worker for being slow to start.
    ::unlink(wsock.c_str());
    touchFile(hb);

    // argv is fully materialized BEFORE fork so the child touches no
    // allocator: between fork and exec only close() and execv run —
    // both async-signal-safe — which keeps fork-from-a-threaded-
    // supervisor (respawns happen on the monitor thread) sound.
    std::vector<std::string> args = cfg.workerCommand;
    args.push_back("--socket=" + wsock);
    args.push_back("--fleet-worker=" + std::to_string(shard.index));
    args.push_back("--heartbeat-file=" + hb);
    args.push_back("--heartbeat-ms=" + std::to_string(cfg.heartbeatMs));
    args.push_back("--faults-bump=" + std::to_string(shard.index + 1));
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        warn("fleet: fork() for shard ", shard.index, ": ",
             std::strerror(errno));
        shard.state = ShardHealth::Respawning;
        shard.respawnAtMs = steadyMs() + cfg.backoffBaseMs;
        return;
    }
    if (pid == 0) {
        // Child: drop every inherited descriptor except stdio so a
        // worker never pins the supervisor's listener, pipes, or a
        // client connection open past its own life.
        for (int fd = 3; fd < 4096; ++fd)
            ::close(fd);
        ::execv(argv[0], argv.data());
        ::_Exit(127);   // exec failed; reaped as an instant death
    }

    shard.pid = pid;
    shard.state = ShardHealth::Ready;
    shard.spawnedAtMs = steadyMs();
    shard.respawnAtMs = 0;
    if (respawn) {
        ++shard.restarts;
        fleetRespawns().inc();
        inform("fleet: respawned shard ", shard.index, " as pid ", pid,
               " (restart #", shard.restarts, ")");
    }
}

void
FleetSupervisor::reapDeaths()
{
    for (;;) {
        int wstatus = 0;
        const pid_t pid = ::waitpid(-1, &wstatus, WNOHANG);
        if (pid <= 0)
            return;
        std::lock_guard<std::mutex> lock(shardsMu);
        Shard *shard = nullptr;
        for (Shard &s : shards)
            if (s.pid == pid)
                shard = &s;
        if (shard == nullptr)
            continue;   // not a fleet worker

        const uint64_t now = steadyMs();
        const uint64_t uptime = now - shard->spawnedAtMs;
        shard->pid = 0;
        ++shard->deaths;
        fleetDeaths().inc();
        warn("fleet: shard ", shard->index, " worker pid ", pid,
             " died (", WIFSIGNALED(wstatus) ? "signal " : "exit ",
             WIFSIGNALED(wstatus) ? WTERMSIG(wstatus)
                                  : WEXITSTATUS(wstatus),
             ") after ", uptime, " ms");

        // Rapid deaths double the backoff; a worker that lived a
        // while earns a fresh one.
        if (uptime < 1000)
            shard->backoffMs =
                std::min(cfg.backoffCapMs,
                         std::max(cfg.backoffBaseMs,
                                  shard->backoffMs * 2));
        else
            shard->backoffMs = cfg.backoffBaseMs;

        shard->deathTimesMs.push_back(now);
        while (!shard->deathTimesMs.empty() &&
               now - shard->deathTimesMs.front() > cfg.breakerWindowMs)
            shard->deathTimesMs.pop_front();

        if (shard->deathTimesMs.size() >=
            static_cast<size_t>(cfg.breakerDeaths)) {
            // Crash loop: stop burning spawns, degrade the shard.
            shard->state = ShardHealth::Degraded;
            shard->cooldownUntilMs = now + cfg.breakerCooldownMs;
            shard->deathTimesMs.clear();
            ++shard->breakerTrips;
            fleetBreakerTrips().inc();
            warn("fleet: shard ", shard->index,
                 " is crash-looping; breaker open for ",
                 cfg.breakerCooldownMs, " ms (trip #",
                 shard->breakerTrips, ")");
        } else {
            shard->state = ShardHealth::Respawning;
            shard->respawnAtMs = now + shard->backoffMs;
        }
    }
}

void
FleetSupervisor::monitorLoop()
{
    while (!quitFlag.load()) {
        struct pollfd pfd = {childPipeFd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, kMonitorTickMs);
        if (rc > 0 && (pfd.revents & POLLIN) != 0) {
            uint8_t sink[64];
            while (::read(childPipeFd, sink, sizeof(sink)) > 0) {
            }
        }
        reapDeaths();

        const uint64_t now = steadyMs();
        std::lock_guard<std::mutex> lock(shardsMu);
        for (Shard &shard : shards) {
            if (shard.state == ShardHealth::Ready && shard.pid > 0) {
                // A worker that stopped pulsing is wedged, not dead:
                // SIGCHLD will never fire on its own. Kill it and let
                // the death flow through the normal respawn path.
                const uint64_t age =
                    heartbeatAgeMs(heartbeatPath(shard.index));
                if (age != UINT64_MAX && age > cfg.stallMs) {
                    warn("fleet: shard ", shard.index, " pid ",
                         shard.pid, " heartbeat stale for ", age,
                         " ms; killing wedged worker");
                    fleetWedgeKills().inc();
                    ::kill(shard.pid, SIGKILL);
                }
            } else if (shard.state == ShardHealth::Respawning &&
                       shard.pid == 0 && now >= shard.respawnAtMs) {
                spawnShardLocked(shard, /*respawn=*/true);
            } else if (shard.state == ShardHealth::Degraded &&
                       now >= shard.cooldownUntilMs) {
                // Half-open probe: one spawn. If it crash-loops again
                // the breaker re-trips after breakerDeaths deaths.
                spawnShardLocked(shard, /*respawn=*/true);
            }
        }
    }
}

// --- router ----------------------------------------------------------

void
FleetSupervisor::registerConnFd(int fd)
{
    std::lock_guard<std::mutex> lock(connMu);
    connFds.insert(fd);
}

void
FleetSupervisor::unregisterConnFd(int fd)
{
    std::lock_guard<std::mutex> lock(connMu);
    connFds.erase(fd);
}

void
FleetSupervisor::acceptLoop()
{
    static obs::Counter &connections =
        obs::counter("serve.fleet.connections");
    while (acceptingFlag.load()) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;   // listener closed: drain in progress
        }
        connections.inc();
        std::lock_guard<std::mutex> lock(connMu);
        // Reap router threads that already finished so a long soak
        // does not accumulate exited-but-unjoined threads.
        for (const uint64_t id : finishedConnIds) {
            const auto it = connThreads.find(id);
            if (it != connThreads.end()) {
                it->second.join();
                connThreads.erase(it);
            }
        }
        finishedConnIds.clear();
        const uint64_t id = nextConnId++;
        connFds.insert(fd);
        connThreads.emplace(
            id, std::thread([this, fd, id] { serveConn(fd, id); }));
    }
}

bool
FleetSupervisor::sendRouterReply(int client_fd,
                                 const ServeReply &reply,
                                 uint64_t request_id)
{
    std::vector<uint8_t> frame;
    if (!encodeFrame(reply.type, request_id,
                     encodeReplyPayload(reply), &frame)
             .ok())
        return false;
    return writeAllFd(client_fd, frame.data(), frame.size(),
                      /*poll_timeout_ms=*/5000)
        .ok();
}

/**
 * Forward one request frame verbatim to the owning worker and relay
 * the reply frame verbatim back. Returns false only when the CLIENT
 * side failed (connection over); worker-side failures degrade to an
 * UNAVAILABLE reply and the client connection survives.
 */
bool
FleetSupervisor::forwardToShard(unsigned shard_idx, int client_fd,
                                const uint8_t *frame, size_t frame_len,
                                std::vector<int> &upstreams,
                                uint64_t request_id,
                                const ServeRequest &request)
{
    // Routing decision against the shard table: a degraded or
    // down shard answers immediately with a retry-after hint sized to
    // when the worker could actually be back — never a hang.
    uint64_t retryAfterMs = 0;
    bool routable = true;
    {
        std::lock_guard<std::mutex> lock(shardsMu);
        const Shard &shard = shards[shard_idx];
        const uint64_t now = steadyMs();
        if (shard.state == ShardHealth::Degraded) {
            routable = false;
            retryAfterMs = shard.cooldownUntilMs > now
                               ? shard.cooldownUntilMs - now
                               : cfg.backoffBaseMs;
        } else if (shard.pid == 0) {
            routable = false;
            retryAfterMs = shard.respawnAtMs > now
                               ? shard.respawnAtMs - now
                               : cfg.backoffBaseMs;
        }
    }

    if (routable) {
        int &up = upstreams[shard_idx];
        for (int attempt = 0; attempt < 2; ++attempt) {
            if (up < 0) {
                up = connectWorker(workerSocketPath(shard_idx));
                if (up < 0)
                    break;
                registerConnFd(up);
            }
            // Worker-bound writes wait at most 5 s; the reply read is
            // unbounded because a legitimately cold trace can take a
            // while — a worker that dies instead (or is SIGKILLed by
            // the wedge watchdog) breaks the read with an error.
            if (!writeAllFd(up, frame, frame_len, 5000).ok()) {
                unregisterConnFd(up);
                ::close(up);
                up = -1;
                continue;   // stale cached conn: reconnect once
            }

            // Hedge window: give the owning worker cfg.hedgeMs to
            // start replying before duplicating an idempotent request
            // to the next shard (any worker can serve any trace; only
            // cache warmth is shard-local). The duplicate goes on a
            // fresh connection so a hedge never desynchronizes the
            // cached per-shard upstream.
            if (cfg.hedgeMs != 0 && cfg.workers > 1 &&
                isIdempotentRequest(request.type)) {
                struct pollfd pfd = {up, POLLIN, 0};
                int rc;
                do {
                    rc = ::poll(&pfd, 1,
                                static_cast<int>(std::min<uint64_t>(
                                    cfg.hedgeMs, 3600 * 1000)));
                } while (rc < 0 && errno == EINTR);
                if (rc == 0) {
                    const unsigned hedgeShard =
                        (shard_idx + 1) % cfg.workers;
                    bool hedgeReady = false;
                    {
                        std::lock_guard<std::mutex> lock(shardsMu);
                        hedgeReady = shards[hedgeShard].state ==
                                         ShardHealth::Ready &&
                                     shards[hedgeShard].pid > 0;
                    }
                    int hfd =
                        hedgeReady
                            ? connectWorker(workerSocketPath(hedgeShard))
                            : -1;
                    if (hfd >= 0 &&
                        !writeAllFd(hfd, frame, frame_len, 5000).ok()) {
                        ::close(hfd);
                        hfd = -1;
                    }
                    if (hfd >= 0) {
                        registerConnFd(hfd);
                        fleetHedges().inc();
                        // Race the two legs; the first whole reply
                        // wins, a leg whose stream breaks drops out.
                        std::vector<uint8_t> reply;
                        FrameHeader rh;
                        bool primaryAlive = true;
                        bool hedgeAlive = true;
                        bool hedgeWon = false;
                        bool have = false;
                        while (primaryAlive || hedgeAlive) {
                            struct pollfd legs[2];
                            nfds_t n = 0;
                            if (primaryAlive)
                                legs[n++] = {up, POLLIN, 0};
                            if (hedgeAlive)
                                legs[n++] = {hfd, POLLIN, 0};
                            do {
                                rc = ::poll(legs, n, -1);
                            } while (rc < 0 && errno == EINTR);
                            if (rc < 0)
                                break;
                            const bool fromPrimary =
                                primaryAlive && legs[0].fd == up &&
                                legs[0].revents != 0;
                            if (readWholeFrame(fromPrimary ? up : hfd,
                                               &reply, &rh, -1)) {
                                have = true;
                                hedgeWon = !fromPrimary;
                                break;
                            }
                            if (fromPrimary) {
                                unregisterConnFd(up);
                                ::close(up);
                                up = -1;
                                primaryAlive = false;
                            } else {
                                unregisterConnFd(hfd);
                                ::close(hfd);
                                hfd = -1;
                                hedgeAlive = false;
                            }
                        }
                        if (have) {
                            if (hedgeWon) {
                                fleetHedgeWins().inc();
                                if (primaryAlive) {
                                    sendCancelFrame(up, request_id);
                                    unregisterConnFd(up);
                                    ::close(up);
                                    up = -1;
                                }
                                // The winning hedge connection is
                                // clean (its one request answered);
                                // cache it for its own shard when the
                                // slot is free.
                                if (upstreams[hedgeShard] < 0) {
                                    upstreams[hedgeShard] = hfd;
                                } else {
                                    unregisterConnFd(hfd);
                                    ::close(hfd);
                                }
                            } else if (hedgeAlive) {
                                sendCancelFrame(hfd, request_id);
                                unregisterConnFd(hfd);
                                ::close(hfd);
                            }
                            fleetRouted().inc();
                            return writeAllFd(client_fd, reply.data(),
                                              reply.size(), 5000)
                                .ok();
                        }
                        if (hedgeAlive && hfd >= 0) {
                            unregisterConnFd(hfd);
                            ::close(hfd);
                        }
                        if (!primaryAlive)
                            break;   // both legs died: UNAVAILABLE
                        // Primary survived; fall through to the
                        // normal blocking read below.
                    }
                }
                // rc > 0: the primary started replying inside the
                // hedge window — no hedge needed.
            }

            uint8_t head[kFrameHeaderBytes];
            FrameHeader rh;
            if (!readExactFd(up, head, sizeof(head)).ok() ||
                !parseFrameHeader(head, sizeof(head), &rh).ok()) {
                unregisterConnFd(up);
                ::close(up);
                up = -1;
                break;   // worker died mid-request: UNAVAILABLE
            }
            std::vector<uint8_t> reply(kFrameHeaderBytes +
                                       rh.payloadLen);
            std::memcpy(reply.data(), head, kFrameHeaderBytes);
            if (rh.payloadLen > 0 &&
                !readExactFd(up, reply.data() + kFrameHeaderBytes,
                             rh.payloadLen)
                     .ok()) {
                unregisterConnFd(up);
                ::close(up);
                up = -1;
                break;
            }
            fleetRouted().inc();
            return writeAllFd(client_fd, reply.data(), reply.size(),
                              5000)
                .ok();
        }
        retryAfterMs = cfg.backoffBaseMs;
    }

    fleetUnavailable().inc();
    ServeReply reply;
    reply.type = MessageType::Error;
    reply.code = WireCode::Unavailable;
    reply.message = "shard " + std::to_string(shard_idx) +
                    " is unavailable (worker down or degraded); "
                    "retry after the hint";
    reply.retryAfterMs = static_cast<uint32_t>(
        std::min<uint64_t>(retryAfterMs == 0 ? cfg.backoffBaseMs
                                             : retryAfterMs,
                           60000));
    return sendRouterReply(client_fd, reply, request_id);
}

void
FleetSupervisor::serveConn(int client_fd, uint64_t conn_id)
{
    std::vector<int> upstreams(cfg.workers, -1);

    for (;;) {
        uint8_t head[kFrameHeaderBytes];
        if (!readExactFd(client_fd, head, sizeof(head)).ok())
            break;   // client done (EOF) or drain shutdown
        // Deadline clock for this hop starts when the frame starts
        // arriving; a slow-dribbling sender spends its own budget.
        const auto recvT0 = std::chrono::steady_clock::now();
        FrameHeader header;
        Status st = parseFrameHeader(head, sizeof(head), &header);
        if (!st.ok()) {
            ServeReply err;
            err.type = MessageType::Error;
            err.code = wireCodeFor(st);
            err.message = st.str();
            sendRouterReply(client_fd, err, 0);
            break;   // unsynchronizable stream
        }
        std::vector<uint8_t> frame(kFrameHeaderBytes +
                                   header.payloadLen);
        std::memcpy(frame.data(), head, kFrameHeaderBytes);
        if (header.payloadLen > 0 &&
            !readExactFd(client_fd, frame.data() + kFrameHeaderBytes,
                         header.payloadLen)
                 .ok())
            break;

        st = verifyFramePayload(header,
                                frame.data() + kFrameHeaderBytes);
        if (!st.ok()) {
            ServeReply err;
            err.type = MessageType::Error;
            err.code = WireCode::CorruptData;
            err.message = st.str();
            sendRouterReply(client_fd, err, header.requestId);
            break;
        }

        const MessageType type = static_cast<MessageType>(header.type);
        if (!isRequestType(type)) {
            ServeReply err;
            err.type = MessageType::Error;
            err.code = WireCode::InvalidArgument;
            err.message = std::string("unexpected message type: ") +
                          messageTypeName(type);
            sendRouterReply(client_fd, err, header.requestId);
            break;
        }

        // The supervisor answers the control plane itself: liveness,
        // introspection, and per-shard readiness must keep working
        // when every worker is down.
        if (type == MessageType::Ping) {
            ServeReply reply;
            reply.type = MessageType::PingReply;
            reply.serverInfo =
                "bpnsp-serve-v1 fleet workers=" +
                std::to_string(cfg.workers);
            if (!sendRouterReply(client_fd, reply, header.requestId))
                break;
            continue;
        }
        if (type == MessageType::Stats) {
            ServeReply reply;
            reply.type = MessageType::StatsReply;
            reply.statsJson = obs::renderStatsSnapshotJson();
            if (!sendRouterReply(client_fd, reply, header.requestId))
                break;
            continue;
        }
        if (type == MessageType::Health) {
            static obs::Counter &healthRequests =
                obs::counter("serve.health_requests");
            healthRequests.inc();
            ServeReply reply;
            reply.type = MessageType::HealthReply;
            for (const ShardStatus &s : shardStatuses()) {
                ShardHealth row;
                row.shard = s.shard;
                row.state = s.state;
                row.pid = static_cast<uint64_t>(s.pid);
                row.restarts = s.restarts;
                row.deaths = s.deaths;
                reply.shards.push_back(row);
            }
            // Enrich each ready row with the worker's own queue
            // depth and estimated queued work, via a short bounded
            // probe of its Health — a wedged worker times out and
            // keeps its zeros rather than stalling the control plane.
            for (ShardHealth &row : reply.shards) {
                if (row.state != ShardHealth::Ready || row.pid == 0)
                    continue;
                const int wfd = connectWorker(
                    workerSocketPath(row.shard));
                if (wfd < 0)
                    continue;
                ServeRequest probe;
                probe.type = MessageType::Health;
                std::vector<uint8_t> pframe;
                std::vector<uint8_t> rframe;
                FrameHeader rh;
                if (encodeFrame(MessageType::Health, 1,
                                encodeRequestPayload(probe), &pframe)
                        .ok() &&
                    writeAllFd(wfd, pframe.data(), pframe.size(), 500)
                        .ok() &&
                    readWholeFrame(wfd, &rframe, &rh, 500)) {
                    ServeReply wreply;
                    if (decodeReplyPayload(
                            static_cast<MessageType>(rh.type),
                            rframe.data() + kFrameHeaderBytes,
                            rh.payloadLen, &wreply)
                            .ok() &&
                        wreply.type == MessageType::HealthReply &&
                        !wreply.shards.empty()) {
                        row.queueDepth = wreply.shards[0].queueDepth;
                        row.queuedCostMs =
                            wreply.shards[0].queuedCostMs;
                    }
                }
                ::close(wfd);
            }
            if (!sendRouterReply(client_fd, reply, header.requestId))
                break;
            continue;
        }

        // Data plane: decode just enough to learn the owning shard,
        // then forward the original frame bytes untouched.
        ServeRequest request;
        st = decodeRequestPayload(type,
                                  frame.data() + kFrameHeaderBytes,
                                  header.payloadLen, &request);
        if (!st.ok()) {
            ServeReply err;
            err.type = MessageType::Error;
            err.code = wireCodeFor(st);
            err.message = st.str();
            if (!sendRouterReply(client_fd, err, header.requestId))
                break;
            continue;   // framing is still synchronized
        }
        const unsigned shard =
            fleetShardFor(request.workload, request.inputIdx,
                          request.instructions, cfg.workers);

        // Deadline propagation: spend this hop's elapsed time out of
        // the request's budget before the worker sees it. The
        // decremented deadline lives in the payload and the frame
        // checksum covers the payload, so a deadline-carrying frame
        // is re-encoded; deadline-free frames keep the verbatim path,
        // which also preserves trailing payload bytes a newer client
        // may have appended.
        const uint8_t *sendPtr = frame.data();
        size_t sendLen = frame.size();
        std::vector<uint8_t> reframed;
        if (request.deadlineMs != 0) {
            const uint64_t elapsedMs = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - recvT0)
                    .count());
            if (elapsedMs >= request.deadlineMs) {
                fleetExpired().inc();
                ServeReply err;
                err.type = MessageType::Error;
                err.code = WireCode::DeadlineExceeded;
                err.message =
                    "deadline expired at the router (budget spent "
                    "before reaching a worker)";
                if (!sendRouterReply(client_fd, err,
                                     header.requestId))
                    break;
                continue;
            }
            request.deadlineMs -=
                static_cast<uint32_t>(elapsedMs);
            if (!encodeFrame(type, header.requestId,
                             encodeRequestPayload(request), &reframed)
                     .ok()) {
                ServeReply err;
                err.type = MessageType::Error;
                err.code = WireCode::Internal;
                err.message = "router failed to re-encode the "
                              "deadline-carrying frame";
                if (!sendRouterReply(client_fd, err,
                                     header.requestId))
                    break;
                continue;
            }
            sendPtr = reframed.data();
            sendLen = reframed.size();
        }
        if (!forwardToShard(shard, client_fd, sendPtr, sendLen,
                            upstreams, header.requestId, request))
            break;
    }

    for (const int up : upstreams) {
        if (up >= 0) {
            unregisterConnFd(up);
            ::close(up);
        }
    }
    unregisterConnFd(client_fd);
    ::close(client_fd);
    {
        std::lock_guard<std::mutex> lock(connMu);
        finishedConnIds.push_back(conn_id);
    }
    connCv.notify_all();
}

// --- lifecycle -------------------------------------------------------

std::vector<ShardStatus>
FleetSupervisor::shardStatuses()
{
    std::lock_guard<std::mutex> lock(shardsMu);
    std::vector<ShardStatus> out;
    out.reserve(shards.size());
    for (const Shard &s : shards) {
        ShardStatus status;
        status.shard = s.index;
        status.state = s.state;
        status.pid = static_cast<int>(s.pid);
        status.restarts = s.restarts;
        status.deaths = s.deaths;
        status.breakerTrips = s.breakerTrips;
        out.push_back(status);
    }
    return out;
}

void
FleetSupervisor::drain()
{
    if (!started || stopped)
        return;
    stopped = true;
    static obs::Counter &drains = obs::counter("serve.drains");
    drains.inc();

    // Phase 1: no new connections; the OS refuses further connect()s.
    acceptingFlag.store(false);
    ::shutdown(listenFd, SHUT_RDWR);
    ::close(listenFd);
    listenFd = -1;
    ::unlink(cfg.socketPath.c_str());
    if (acceptThread.joinable())
        acceptThread.join();

    // Phase 2: stop supervising FIRST, so the SIGTERMs below are not
    // mistaken for crashes and answered with respawns — this is also
    // what makes "drain while a respawn is in flight" safe: the
    // pending respawn simply never happens.
    quitFlag.store(true);
    if (monitorThread.joinable())
        monitorThread.join();

    // Phase 3: bounded grace for in-flight connections, then force
    // the stragglers closed (shutdown() unblocks their reads).
    {
        std::unique_lock<std::mutex> lock(connMu);
        connCv.wait_for(
            lock, std::chrono::milliseconds(cfg.drainGraceMs), [this] {
                return connThreads.size() == finishedConnIds.size();
            });
        for (const int fd : connFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (;;) {
        std::map<uint64_t, std::thread> threads;
        {
            std::lock_guard<std::mutex> lock(connMu);
            threads.swap(connThreads);
            finishedConnIds.clear();
        }
        if (threads.empty())
            break;
        for (auto &[id, t] : threads)
            t.join();
    }

    // Phase 4: fan the drain out to the workers — SIGTERM runs each
    // worker's own graceful drain — and reap them, escalating to
    // SIGKILL only if a worker ignores the drain past the grace.
    std::vector<pid_t> live;
    {
        std::lock_guard<std::mutex> lock(shardsMu);
        for (Shard &shard : shards) {
            if (shard.pid > 0) {
                ::kill(shard.pid, SIGTERM);
                live.push_back(shard.pid);
            }
            shard.state = ShardHealth::Respawning;
        }
    }
    const uint64_t deadline = steadyMs() + cfg.drainGraceMs;
    for (const pid_t pid : live) {
        for (;;) {
            int wstatus = 0;
            const pid_t got = ::waitpid(pid, &wstatus, WNOHANG);
            if (got == pid || (got < 0 && errno == ECHILD))
                break;
            if (steadyMs() >= deadline) {
                warn("fleet: worker pid ", pid,
                     " ignored the drain; killing");
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &wstatus, 0);
                break;
            }
            ::poll(nullptr, 0, 10);
        }
    }

    {
        std::lock_guard<std::mutex> lock(shardsMu);
        for (Shard &shard : shards) {
            shard.pid = 0;
            ::unlink(workerSocketPath(shard.index).c_str());
            ::unlink(heartbeatPath(shard.index).c_str());
        }
    }
    inform("fleet: drained (", cfg.workers, " worker(s) stopped)");
}

} // namespace bpnsp::serve
