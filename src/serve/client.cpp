#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace bpnsp::serve {

// --- ServeClient -----------------------------------------------------

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

Status
ServeClient::connectUnix(const std::string &socket_path)
{
    close();
    endpointPath = socket_path;
    struct sockaddr_un addr;
    if (socket_path.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument("socket path too long: " +
                                       socket_path);
    const int nfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (nfd < 0)
        return Status::ioError(std::string("socket(): ") +
                               std::strerror(errno));
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(nfd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const Status st = Status::ioError("connect(" + socket_path +
                                          "): " + std::strerror(errno));
        ::close(nfd);
        return st;
    }
    fd = nfd;
    return Status();
}

Status
ServeClient::reconnect()
{
    if (endpointPath.empty())
        return Status::invalidArgument("client was never connected");
    return connectUnix(endpointPath);
}

Status
ServeClient::sendFrame(MessageType type, uint64_t request_id,
                       const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> frame;
    const Status st = encodeFrame(type, request_id, payload, &frame);
    if (!st.ok())
        return st;
    // Shared EINTR-audited write loop (protocol.hpp): partial sends
    // resume, signals restart, bytes are never dropped or recounted.
    return writeAllFd(fd, frame.data(), frame.size());
}

Status
ServeClient::recvReply(uint64_t expect_id, ServeReply *reply)
{
    uint8_t headerBytes[kFrameHeaderBytes];
    Status st = readExactFd(fd, headerBytes, sizeof(headerBytes));
    if (!st.ok())
        return st;
    FrameHeader header;
    st = parseFrameHeader(headerBytes, sizeof(headerBytes), &header);
    if (!st.ok())
        return st;
    std::vector<uint8_t> payload(header.payloadLen);
    if (header.payloadLen > 0) {
        st = readExactFd(fd, payload.data(), payload.size());
        if (!st.ok())
            return st;
    }
    st = verifyFramePayload(header, payload.data());
    if (!st.ok())
        return st;
    if (header.requestId != expect_id)
        return Status::corruptData(
            "reply id " + std::to_string(header.requestId) +
            " does not match request id " + std::to_string(expect_id));
    return decodeReplyPayload(static_cast<MessageType>(header.type),
                              payload.data(), payload.size(), reply);
}

Status
ServeClient::callOnce(const ServeRequest &request, ServeReply *reply)
{
    if (fd < 0)
        return Status::invalidArgument("client is not connected");
    const uint64_t id = nextRequestId++;
    Status st = sendFrame(request.type, id,
                          encodeRequestPayload(request));
    if (!st.ok()) {
        close();   // a half-sent frame desynchronizes the stream
        return st;
    }
    st = recvReply(id, reply);
    if (!st.ok())
        close();   // the stream may be desynchronized; start fresh
    else if (reply->type == MessageType::Error)
        // Surface the application code through reply->code; the call
        // itself succeeded at the protocol level.
        reply->code = reply->code == WireCode::Ok ? WireCode::Internal
                                                  : reply->code;
    return st;
}

Status
ServeClient::call(const ServeRequest &request, ServeReply *reply)
{
    if (fd < 0 && !endpointPath.empty()) {
        // callOnce closed the socket on a transport error; a restarted
        // server means a fresh socket.
        const Status st = reconnect();
        if (!st.ok())
            return st;
    }
    return callOnce(request, reply);
}

Status
ServeClient::fireAndForget(const ServeRequest &request)
{
    if (fd < 0)
        return Status::invalidArgument("client is not connected");
    return sendFrame(request.type, nextRequestId++,
                     encodeRequestPayload(request));
}

Status
ServeClient::ping(std::string *info)
{
    ServeRequest request;
    request.type = MessageType::Ping;
    ServeReply reply;
    const Status st = call(request, &reply);
    if (!st.ok())
        return st;
    if (reply.code != WireCode::Ok)
        return statusFromWire(reply.code, reply.message);
    if (info != nullptr)
        *info = reply.serverInfo;
    return Status();
}

Status
ServeClient::stats(std::string *json)
{
    ServeRequest request;
    request.type = MessageType::Stats;
    ServeReply reply;
    const Status st = call(request, &reply);
    if (!st.ok())
        return st;
    if (reply.code != WireCode::Ok)
        return statusFromWire(reply.code, reply.message);
    if (json != nullptr)
        *json = reply.statsJson;
    return Status();
}

// --- load generator --------------------------------------------------

namespace {

/** What one client thread accumulated. */
struct ClientTally
{
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t errors = 0;
    uint64_t transport = 0;
    uint64_t killed = 0;
    uint64_t mismatches = 0;
    uint64_t expired = 0;
    std::vector<double> latenciesMs;
};

/**
 * Direct in-process result of the same slice, for --verify: drive a
 * fresh predictor over records [first, first+count) of the trace the
 * load generator captured from the VM, independently of the server's
 * corpus.
 */
bool
verifyReply(const std::vector<TraceRecord> &trace,
            const std::string &predictor, uint64_t first,
            uint64_t count, const ServeReply &reply)
{
    if (first > trace.size() || count > trace.size() - first)
        return false;
    auto bp = makePredictor(predictor);
    PredictorSim sim(*bp, /*collect_per_branch=*/false);
    for (uint64_t i = first; i < first + count; ++i)
        sim.onRecord(trace[i]);
    return sim.condExecs() == reply.condExecs &&
           sim.condMispreds() == reply.condMispreds &&
           doubleBits(sim.accuracy()) == reply.accuracyBits;
}

ClientTally
clientLoop(const LoadGenConfig &cfg, unsigned index,
           const std::vector<TraceRecord> &trace)
{
    ClientTally tally;
    // Per-client stream from the loadgen seed via the shared audited
    // derivation, so nearby client indices stay decorrelated.
    Rng rng = Rng::stream(cfg.seed, index);
    ServeClient client;

    for (unsigned i = 0; i < cfg.requestsPerClient; ++i) {
        if (!client.connected()) {
            if (!client.connectUnix(cfg.socketPath).ok()) {
                ++tally.transport;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
                continue;
            }
        }

        ServeRequest request;
        request.type = MessageType::Simulate;
        request.workload = cfg.workload;
        request.inputIdx = cfg.inputIdx;
        request.instructions = cfg.instructions;
        request.deadlineMs = cfg.deadlineMs;
        request.predictor =
            cfg.predictors[rng.below(cfg.predictors.size())];
        if (cfg.sliceRecords != 0 &&
            cfg.sliceRecords < cfg.instructions) {
            request.first =
                rng.below(cfg.instructions - cfg.sliceRecords + 1);
            request.count = cfg.sliceRecords;
        }
        ++tally.attempted;

        if (cfg.killProb > 0.0 && rng.chance(cfg.killProb)) {
            // Randomized client kill: send the request, then vanish
            // without reading the reply. The server must shrug this
            // off (EPIPE on its write, never a crash or a wedge).
            client.fireAndForget(request);
            client.close();
            ++tally.killed;
            continue;
        }

        const auto t0 = std::chrono::steady_clock::now();
        ServeReply reply;
        const Status st = client.call(request, &reply);
        const auto t1 = std::chrono::steady_clock::now();
        if (!st.ok()) {
            ++tally.transport;
            continue;
        }
        const double latencyMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        tally.latenciesMs.push_back(latencyMs);
        if (reply.code == WireCode::Ok) {
            ++tally.ok;
            if (cfg.verify) {
                const uint64_t first = request.first;
                const uint64_t count =
                    request.count == 0
                        ? cfg.instructions - request.first
                        : request.count;
                if (!verifyReply(trace, request.predictor, first,
                                 count, reply))
                    ++tally.mismatches;
            }
        } else if (reply.code == WireCode::DeadlineExceeded) {
            ++tally.expired;
        } else if (reply.code == WireCode::ResourceExhausted ||
                   reply.code == WireCode::Busy) {
            ++tally.rejected;
            // Closed-loop backoff: the server asked for it.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                1 + static_cast<long>(rng.below(5))));
        } else {
            ++tally.errors;
        }
    }
    return tally;
}

double
exactPercentile(std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

Status
runLoadGen(const LoadGenConfig &cfg, LoadGenResult *out)
{
    if (cfg.clients < 1 || cfg.clients > kMaxLoadGenClients)
        return Status::invalidArgument(
            "loadgen: client count " + std::to_string(cfg.clients) +
            " outside [1, " + std::to_string(kMaxLoadGenClients) + "]");
    if (cfg.requestsPerClient < 1 ||
        cfg.requestsPerClient > kMaxLoadGenRequests)
        return Status::invalidArgument(
            "loadgen: request count " +
            std::to_string(cfg.requestsPerClient) + " outside [1, " +
            std::to_string(kMaxLoadGenRequests) + "]");

    // --verify's reference: the whole trace, executed once on the VM
    // and shared read-only by every client thread.
    VectorSink trace;
    if (cfg.verify)
        runTrace(findWorkload(cfg.workload).build(cfg.inputIdx),
                 {&trace}, cfg.instructions);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ClientTally> tallies(cfg.clients);
    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (unsigned c = 0; c < cfg.clients; ++c) {
        threads.emplace_back([&cfg, &tallies, &trace, c] {
            tallies[c] = clientLoop(cfg, c, trace.get());
        });
    }
    for (std::thread &t : threads)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();

    LoadGenResult &result = *out;
    result = LoadGenResult();
    std::vector<double> all;
    for (const ClientTally &t : tallies) {
        result.attempted += t.attempted;
        result.ok += t.ok;
        result.rejected += t.rejected;
        result.errors += t.errors;
        result.transport += t.transport;
        result.killed += t.killed;
        result.mismatches += t.mismatches;
        result.expired += t.expired;
        all.insert(all.end(), t.latenciesMs.begin(),
                   t.latenciesMs.end());
    }
    result.elapsedSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    std::sort(all.begin(), all.end());
    result.p50Ms = exactPercentile(all, 0.50);
    result.p99Ms = exactPercentile(all, 0.99);
    return Status();
}

} // namespace bpnsp::serve
