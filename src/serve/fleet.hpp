/**
 * @file
 * Fleet mode: a supervisor/router in front of N serve worker
 * *processes*, so one crashed or wedged worker never takes the
 * service down.
 *
 * Topology (see DESIGN.md "Fleet"):
 *
 *   clients ── public socket ── FleetSupervisor (router + monitor)
 *                                 ├─ worker 0  <socket>.w0  (+ .hb)
 *                                 ├─ worker 1  <socket>.w1  (+ .hb)
 *                                 └─ ...
 *
 *  - Each worker is a fork+exec'd `bpnsp_served --fleet-worker=<i>`
 *    serving a private UNIX socket. Workers own a consistent-hash
 *    slice of the trace-digest space (fleetShardFor), so each
 *    worker's reader/chunk caches stay hot on its shard.
 *  - The router accepts client connections on the public socket and
 *    forwards request frames *verbatim* to the owning worker (request
 *    ids and payloads untouched), relaying the reply frame back.
 *    Ping/Stats/Health answer from the supervisor itself; Health rows
 *    are enriched with each live worker's queue depth and estimated
 *    queued work via a bounded probe of the worker's own Health.
 *  - Deadline propagation: a request carrying deadlineMs is
 *    re-encoded with the deadline decremented by the time it spent
 *    inside the router, and one that has already expired is answered
 *    DEADLINE_EXCEEDED without costing worker time. Deadline-free
 *    requests keep the verbatim forwarding path (which preserves
 *    trailing payload bytes a newer client may have appended).
 *  - Hedging (hedgeMs != 0): an idempotent request whose owning
 *    worker has not started replying after hedgeMs is duplicated to
 *    the next shard on a fresh connection — every worker shares one
 *    on-disk corpus, so sharding is cache warmth, not correctness —
 *    and the first full reply wins; the loser gets a Cancel frame for
 *    the duplicate and its connection is closed
 *    (serve.hedges / serve.hedge_wins).
 *  - The monitor learns of worker deaths via SIGCHLD (self-pipe,
 *    util/signals.hpp) and of wedged workers via an mtime heartbeat
 *    file each worker touches (the trace-cache lock-heartbeat pattern):
 *    a worker whose heartbeat goes stale is SIGKILLed and its death
 *    flows through the same respawn path.
 *  - Respawns back off exponentially (capped) while deaths are rapid.
 *    A crash-looping shard — breakerDeaths deaths inside
 *    breakerWindowMs — trips a circuit breaker: the shard is marked
 *    Degraded and its requests answer UNAVAILABLE with a retry-after
 *    hint instead of hanging, while the other shards serve on. After
 *    breakerCooldownMs one probe worker is spawned (half-open).
 *  - drain() (SIGTERM) closes the public listener, gives in-flight
 *    connections a bounded grace period, then fans SIGTERM out to
 *    every worker so each runs its own graceful drain.
 *
 * Fleet counters: serve.fleet.{workers, worker_deaths, respawns,
 * breaker_trips, wedge_kills, unavailable, routed, connections}. The
 * supervisor's run report (schema_rev 7) carries them; worker
 * processes do not write reports.
 */

#ifndef BPNSP_SERVE_FLEET_HPP
#define BPNSP_SERVE_FLEET_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "serve/protocol.hpp"
#include "util/status.hpp"

namespace bpnsp::serve {

/** Everything a fleet needs. */
struct FleetConfig
{
    std::string socketPath;   ///< public router socket (required)
    unsigned workers = 2;     ///< shard / worker-process count

    /**
     * argv prefix that execs one worker (argv[0] = binary path). The
     * supervisor appends per-worker --socket / --fleet-worker /
     * --heartbeat-file / --heartbeat-ms / --faults-bump. Required.
     */
    std::vector<std::string> workerCommand;

    uint64_t heartbeatMs = 250;       ///< worker liveness pulse period
    uint64_t stallMs = 5000;          ///< stale pulse => wedged => kill
    uint64_t backoffBaseMs = 100;     ///< respawn backoff floor
    uint64_t backoffCapMs = 2000;     ///< respawn backoff cap
    unsigned breakerDeaths = 5;       ///< deaths inside the window...
    uint64_t breakerWindowMs = 10000; ///< ...that trip the breaker
    uint64_t breakerCooldownMs = 3000; ///< degraded time before probe
    uint64_t drainGraceMs = 5000;     ///< in-flight conn grace on drain

    /**
     * Router-side hedged requests: duplicate an idempotent request to
     * the next shard when the owning worker has not started replying
     * after this many ms (0 = off). Needs >= 2 workers to do anything.
     */
    uint64_t hedgeMs = 0;
};

/** Point-in-time view of one shard (tests, Health replies). */
struct ShardStatus
{
    uint32_t shard = 0;
    uint8_t state = ShardHealth::Ready;   ///< ShardHealth::State
    int pid = 0;                          ///< live worker pid (0 down)
    uint32_t restarts = 0;                ///< respawns since start
    uint32_t deaths = 0;
    uint32_t breakerTrips = 0;
};

/**
 * The shard owning (workload, input, instructions) in an N-worker
 * fleet: a stable hash of the trace-cache identity, so every router
 * and every test agrees, and repeated requests for one trace always
 * land on the worker whose caches are hot for it. Fixed for the life
 * of a fleet; changing N reshards, which only moves cache warmth —
 * all workers share one on-disk corpus.
 */
unsigned fleetShardFor(const std::string &workload, uint32_t input_idx,
                       uint64_t instructions, unsigned workers);

/** Supervisor + router; one per fleet, owns the worker processes. */
class FleetSupervisor
{
  public:
    explicit FleetSupervisor(FleetConfig config);
    ~FleetSupervisor();

    FleetSupervisor(const FleetSupervisor &) = delete;
    FleetSupervisor &operator=(const FleetSupervisor &) = delete;

    /** Bind the public socket, spawn every worker, start routing. */
    Status start();

    /**
     * Graceful fleet drain: close the listener, give in-flight
     * connections cfg.drainGraceMs to finish, force-close stragglers,
     * SIGTERM every worker (each drains itself), reap them all.
     * Idempotent.
     */
    void drain();

    bool running() const { return started && !stopped; }

    const FleetConfig &config() const { return cfg; }

    /** Snapshot of every shard's supervision state. */
    std::vector<ShardStatus> shardStatuses();

    /** The private socket / heartbeat file of one shard. */
    std::string workerSocketPath(unsigned shard) const;
    std::string heartbeatPath(unsigned shard) const;

  private:
    struct Shard;

    void monitorLoop();
    void reapDeaths();
    void spawnShardLocked(Shard &shard, bool respawn);
    void acceptLoop();
    void serveConn(int client_fd, uint64_t conn_id);
    bool forwardToShard(unsigned shard_idx, int client_fd,
                        const uint8_t *frame, size_t frame_len,
                        std::vector<int> &upstreams,
                        uint64_t request_id,
                        const ServeRequest &request);
    bool sendRouterReply(int client_fd, const ServeReply &reply,
                         uint64_t request_id);
    void registerConnFd(int fd);
    void unregisterConnFd(int fd);

    FleetConfig cfg;
    bool started = false;
    bool stopped = false;

    int listenFd = -1;
    int childPipeFd = -1;   ///< SIGCHLD self-pipe read end

    std::thread monitorThread;
    std::thread acceptThread;
    std::atomic<bool> quitFlag{false};
    std::atomic<bool> acceptingFlag{true};

    std::mutex shardsMu;
    std::vector<Shard> shards;

    std::mutex connMu;
    std::condition_variable connCv;
    std::map<uint64_t, std::thread> connThreads;
    std::vector<uint64_t> finishedConnIds;
    std::set<int> connFds;   ///< every live client+upstream fd
    uint64_t nextConnId = 1;
};

} // namespace bpnsp::serve

#endif // BPNSP_SERVE_FLEET_HPP
