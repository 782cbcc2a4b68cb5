/**
 * @file
 * Client side of bpnsp-serve-v3: a small blocking client (one
 * outstanding request per connection) plus a closed-loop load
 * generator for the latency bench and the soak test.
 *
 * The client is deliberately simple — connect, send one frame, block
 * for the matching reply — because every caller here (CLI, tests,
 * bench workers) wants request/reply semantics; concurrency comes from
 * running many clients, whose requests the server's FIFO admission
 * queue hands to its worker pool in arrival order.
 *
 * A call is one attempt: the client never re-sends a request. A
 * RESOURCE_EXHAUSTED or BUSY reply comes back to the caller with the
 * server's retry-after hint (reply.retryAfterMs), and the caller
 * decides whether to wait and send again (the load generator backs
 * off briefly and moves on). A transport error closes the socket; the
 * next call() on the same client reconnects to the remembered path
 * before it sends.
 */

#ifndef BPNSP_SERVE_CLIENT_HPP
#define BPNSP_SERVE_CLIENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/status.hpp"

namespace bpnsp::serve {

/** Blocking request/reply client over one connection. */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to a UNIX-domain socket path. */
    Status connectUnix(const std::string &socket_path);

    /**
     * Re-establish the last connectUnix socket path (a restarted
     * server means a fresh socket).
     */
    Status reconnect();

    bool connected() const { return fd >= 0; }

    void close();

    /**
     * Send `request` once and block for the reply, reconnecting first
     * when an earlier transport error closed the socket. Protocol-level
     * failures (connection loss, malformed reply, id mismatch) come
     * back as a Status; application-level failures arrive as an Ok
     * Status with reply->code != WireCode::Ok.
     */
    Status call(const ServeRequest &request, ServeReply *reply);

    /** Liveness probe; fills `info` from the server's PingReply. */
    Status ping(std::string *info);

    /**
     * Live metric snapshot: a bpnsp-stats-v1 JSON document rendered by
     * the server's io thread (never queued behind workers, so it works
     * under full load and during a drain).
     */
    Status stats(std::string *json);

    /**
     * Send a request and do NOT wait for the reply. Used by the load
     * generator's randomized client kills (send, vanish) to prove the
     * server shrugs off peers that disappear mid-request.
     */
    Status fireAndForget(const ServeRequest &request);

  private:
    Status callOnce(const ServeRequest &request, ServeReply *reply);
    Status sendFrame(MessageType type, uint64_t request_id,
                     const std::vector<uint8_t> &payload);
    Status recvReply(uint64_t expect_id, ServeReply *reply);

    int fd = -1;
    uint64_t nextRequestId = 1;

    // Remembered socket path for reconnect() (empty = never connected).
    std::string endpointPath;
};

/** Upper bound on LoadGenConfig::clients (one thread each). */
constexpr unsigned kMaxLoadGenClients = 256;

/** Upper bound on LoadGenConfig::requestsPerClient. */
constexpr unsigned kMaxLoadGenRequests = 1u << 20;

/** Knobs of one closed-loop load-generation run. */
struct LoadGenConfig
{
    std::string socketPath;
    unsigned clients = 4;           ///< connections, [1, kMaxLoadGenClients]
    unsigned requestsPerClient = 32; ///< [1, kMaxLoadGenRequests]
    std::string workload = "mcf_like";
    uint32_t inputIdx = 0;
    uint64_t instructions = 200000;
    std::vector<std::string> predictors = {"gshare"};
    uint64_t sliceRecords = 0;      ///< slice width (0 = whole trace)
    double killProb = 0.0;          ///< P(disconnect before reply)
    uint64_t seed = 1;              ///< drives slice + kill draws
    bool verify = false;            ///< check replies vs direct runs
    uint32_t deadlineMs = 0;        ///< per-request deadline (0 = none)
};

/** What the closed loop observed. */
struct LoadGenResult
{
    uint64_t attempted = 0;  ///< requests sent
    uint64_t ok = 0;         ///< Ok replies
    uint64_t rejected = 0;   ///< RESOURCE_EXHAUSTED / BUSY replies
    uint64_t errors = 0;     ///< other error replies
    uint64_t transport = 0;  ///< connection-level failures
    uint64_t killed = 0;     ///< deliberate client-side disconnects
    uint64_t mismatches = 0; ///< verify failures (must stay 0)
    uint64_t expired = 0;    ///< DEADLINE_EXCEEDED replies
    double elapsedSeconds = 0.0;
    double p50Ms = 0.0;      ///< exact percentiles over all replies
    double p99Ms = 0.0;

    double
    requestsPerSecond() const
    {
        if (elapsedSeconds <= 0.0)
            return 0.0;
        return static_cast<double>(ok) / elapsedSeconds;
    }
};

/**
 * Run `clients` concurrent closed loops of Simulate requests against a
 * server and aggregate what they saw into `*out`. With cfg.verify,
 * the trace is executed once on the VM in this process and every Ok
 * reply is checked bit-for-bit against a fresh predictor over the
 * same slice of it, so the check never reads the server's corpus.
 * Latency percentiles are exact (computed from the full sample
 * vector, not a histogram estimate). InvalidArgument, before any
 * thread starts, when cfg.clients is outside [1, kMaxLoadGenClients]
 * or cfg.requestsPerClient outside [1, kMaxLoadGenRequests].
 */
Status runLoadGen(const LoadGenConfig &cfg, LoadGenResult *out);

} // namespace bpnsp::serve

#endif // BPNSP_SERVE_CLIENT_HPP
