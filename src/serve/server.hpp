/**
 * @file
 * `bpnsp_served`'s engine: a concurrent trace/simulation query service
 * over the shared mmap'd trace store corpus.
 *
 * Architecture (see DESIGN.md "Serving"):
 *
 *  - One I/O thread owns accept() on the one UNIX-domain listener and
 *    a poll() loop over every live connection. It assembles
 *    length-prefixed frames incrementally, validates
 *    magic/version/length *before* buffering a payload, verifies the
 *    payload checksum, and decodes requests.
 *    Malformed input of any kind — truncated frame, oversized length
 *    prefix, corrupt checksum, mid-frame disconnect — produces a clean
 *    Status, a best-effort Error reply, and a closed connection; never
 *    a crash.
 *  - Admission is one bounded FIFO queue (DESIGN.md "Admission"): a
 *    request that arrives with queueDepth requests already queued is
 *    refused at once with RESOURCE_EXHAUSTED and a retry-after hint
 *    (serve.rejected, serve.shed), so memory stays bounded under any
 *    offered load. Requests whose absolute deadline passes while they
 *    wait are swept out with DEADLINE_EXCEEDED before consuming worker
 *    time (serve.expired).
 *  - A fixed pool of worker threads pops requests in arrival order,
 *    one at a time. Every op shares one execute path (validate, open
 *    the reader, dispatch, reply) and one replay helper, which
 *    quarantines an entry whose replay hits damage. The in-memory
 *    decoded-chunk LRU (tracestore/chunk_cache.hpp) lets repeat
 *    replays of a hot trace skip the varint decode.
 *  - Each request runs under its own CancelToken carrying the
 *    client-supplied deadline, parented to the server's stop token —
 *    deliberately *not* to the process-global signal token, so a
 *    SIGTERM drain lets in-flight requests finish while the listener
 *    is already closed. stop() fires the stop token for a hard cut.
 *  - Cold traces are materialized on demand through the canonical
 *    runWorkloadTrace() path (recorded + atomically published to the
 *    on-disk cache), serialized per digest so concurrent requests for
 *    the same cold trace generate it once. Every entry is opened
 *    through TraceCache::openVerified(), the same rule the runner
 *    applies.
 *
 * Thread-safety: start(), drain(), and stop() are for the owning
 * thread; everything else is internal.
 */

#ifndef BPNSP_SERVE_SERVER_HPP
#define BPNSP_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/store.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "workloads/workload.hpp"

namespace bpnsp::serve {

/** Upper bound on ServeConfig::workers (one thread each). */
constexpr unsigned kMaxServeWorkers = 256;

/** Everything a server needs. */
struct ServeConfig
{
    std::string socketPath;    ///< UNIX-domain socket (required)
    unsigned workers = 4;      ///< worker pool size, [1, kMaxServeWorkers]
    size_t queueDepth = 64;    ///< admission queue bound (>= 1)
    std::string traceCacheDir; ///< on-disk corpus (required)
};

/** The serving engine. */
class ServeServer
{
  public:
    explicit ServeServer(ServeConfig config);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Bind, listen, and spawn the I/O thread plus the worker pool.
     * InvalidArgument for a missing socket path or trace cache dir, a
     * worker count outside [1, kMaxServeWorkers] or a zero queue
     * depth, before anything is bound or spawned; IoError when the OS
     * refuses the socket.
     */
    Status start();

    /**
     * Graceful drain: close the listener (no new connections, no new
     * requests), let the queue empty and in-flight requests finish,
     * then shut the pool down and close every connection. Idempotent.
     */
    void drain();

    /**
     * Hard stop: fire the stop token (cancelling in-flight requests at
     * their next poll), then drain the machinery. Idempotent.
     */
    void stop();

    bool running() const { return started && !stopped; }

    const ServeConfig &config() const { return cfg; }

  private:
    struct Conn;
    struct Pending;

    // --- I/O side (io thread) ---
    void ioLoop();
    void acceptOne();
    void readConn(const std::shared_ptr<Conn> &conn);
    void parseFrames(const std::shared_ptr<Conn> &conn);
    void admit(const std::shared_ptr<Conn> &conn,
               const FrameHeader &header, ServeRequest request);

    // --- admission queue (queueMu held) ---
    uint32_t retryAfterMsLocked() const;
    void sweepExpiredLocked(std::vector<Pending> *expired);
    void updateQueueGaugesLocked();

    // --- worker side ---
    void workerLoop();
    bool popRequest(Pending *out);
    void execute(const Pending &pending);
    Status runRequest(const ServeRequest &request, ServeReply *reply);
    Status replayTrace(const TraceCacheKey &key,
                       const TraceStoreReader &reader, uint64_t first,
                       uint64_t count, TraceSink &sink);
    Status executeSimulate(const ServeRequest &request,
                           const TraceCacheKey &key,
                           const TraceStoreReader &reader,
                           ServeReply *reply);
    Status executeBranchStats(const ServeRequest &request,
                              const TraceCacheKey &key,
                              const TraceStoreReader &reader,
                              ServeReply *reply);

    // --- shared helpers ---
    void sendReply(const std::shared_ptr<Conn> &conn,
                   uint64_t request_id, const ServeReply &reply);
    void sendError(const std::shared_ptr<Conn> &conn,
                   uint64_t request_id, WireCode code,
                   const std::string &message,
                   uint32_t retry_after_ms = 0);
    void closeConn(const std::shared_ptr<Conn> &conn);

    /** Non-fatal workload lookup (nullptr when unknown). */
    const Workload *findServableWorkload(const std::string &name) const;

    /** Validate the common request fields; Ok or InvalidArgument. */
    Status validateRequest(const ServeRequest &request,
                           const Workload **workload_out);

    /**
     * The open reader for (workload, input, instructions),
     * materializing and publishing the trace first when cold.
     */
    std::shared_ptr<TraceStoreReader>
    ensureReader(const Workload &workload, const ServeRequest &request,
                 Status *status);

    void dropReader(const std::string &digest);

    ServeConfig cfg;
    bool started = false;
    bool stopped = false;

    int listenFd = -1;
    int wakePipe[2] = {-1, -1};   ///< self-pipe to nudge poll()

    std::thread ioThread;
    std::vector<std::thread> workerThreads;

    std::atomic<bool> acceptingFlag{true};
    std::atomic<bool> quitFlag{false};     ///< workers + io exit
    CancelToken stopToken;                 ///< in-flight hard cut

    // Connections are owned by the io thread; workers hold shared_ptrs
    // only long enough to write replies.
    std::vector<std::shared_ptr<Conn>> conns;

    std::mutex queueMu;
    std::condition_variable queueCv;       ///< workers wait here
    std::condition_variable idleCv;        ///< drain() waits here

    std::deque<Pending> queue;             ///< admitted, arrival order
    unsigned inFlight = 0;                 ///< popped, not yet replied

    std::mutex readersMu;
    struct ReaderEntry
    {
        std::shared_ptr<TraceStoreReader> reader;
        uint64_t lastUse = 0;
    };
    std::map<std::string, ReaderEntry> readers;   ///< digest -> entry
    uint64_t readerClock = 0;
    std::map<std::string, std::shared_ptr<std::mutex>> genMutexes;

    std::unique_ptr<TraceCache> cache;
    std::vector<Workload> workloadsCatalog;       ///< loaded at start
};

} // namespace bpnsp::serve

#endif // BPNSP_SERVE_SERVER_HPP
