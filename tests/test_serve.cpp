/**
 * @file
 * Tests for the serving subsystem: bpnsp-serve-v3 protocol round
 * trips, frame-decoder hardening against malformed and truncated
 * input, server request semantics (validation, deadlines,
 * backpressure, drain), bit-identity of served results against direct
 * in-process runs under concurrent clients, and the serve.* fault
 * injection points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/chunk_cache.hpp"
#include "tracestore/format.hpp"
#include "tracestore/store.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;
using namespace bpnsp::serve;

namespace {

/** Fresh scratch directory per test; removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_serve_" +
               tag)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }

    const std::string path;
};

constexpr uint64_t kTraceLen = 120000;

ServeRequest
simulateRequest(const std::string &predictor, uint64_t first = 0,
                uint64_t count = 0)
{
    ServeRequest request;
    request.type = MessageType::Simulate;
    request.workload = "mcf_like";
    request.inputIdx = 0;
    request.instructions = kTraceLen;
    request.predictor = predictor;
    request.first = first;
    request.count = count;
    return request;
}

/** Direct in-process result of one whole-trace run (canonical path). */
struct DirectResult
{
    uint64_t condExecs = 0;
    uint64_t condMispreds = 0;
    uint64_t accuracyBits = 0;
};

DirectResult
directRun(const std::string &predictor)
{
    const Workload workload = findWorkload("mcf_like");
    auto bp = makePredictor(predictor);
    PredictorSim sim(*bp, /*collect_per_branch=*/false);
    const uint64_t got =
        runWorkloadTrace(workload, 0, {&sim}, kTraceLen);
    EXPECT_EQ(got, kTraceLen);
    return {sim.condExecs(), sim.condMispreds(),
            doubleBits(sim.accuracy())};
}

/** Server + scratch corpus fixture. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    startServer(unsigned workers = 2, size_t queue_depth = 32)
    {
        scratch = std::make_unique<ScratchDir>(
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
        ServeConfig config;
        config.socketPath = scratch->file("s.sock");
        config.workers = workers;
        config.queueDepth = queue_depth;
        config.traceCacheDir = scratch->file("cache");
        server = std::make_unique<ServeServer>(std::move(config));
        ASSERT_TRUE(server->start().ok());
    }

    void
    TearDown() override
    {
        faultsim::reset();
        DecodedChunkCache::instance().setCapacityBytes(0);
        if (server != nullptr)
            server->stop();
    }

    const std::string &
    socketPath() const
    {
        return server->config().socketPath;
    }

    std::unique_ptr<ScratchDir> scratch;
    std::unique_ptr<ServeServer> server;
};

/** Raw connected UNIX socket for wire-level hardening tests. */
class RawConn
{
  public:
    explicit RawConn(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool ok() const { return fd >= 0; }

    void
    send(const std::vector<uint8_t> &bytes)
    {
        ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** Read one reply frame; false on EOF/timeout. */
    bool
    recvFrame(FrameHeader *header, std::vector<uint8_t> *payload)
    {
        struct timeval tv = {5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        uint8_t hdr[kFrameHeaderBytes];
        size_t off = 0;
        while (off < sizeof(hdr)) {
            const ssize_t n =
                ::recv(fd, hdr + off, sizeof(hdr) - off, 0);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        if (!parseFrameHeader(hdr, sizeof(hdr), header).ok())
            return false;
        payload->resize(header->payloadLen);
        off = 0;
        while (off < payload->size()) {
            const ssize_t n = ::recv(fd, payload->data() + off,
                                     payload->size() - off, 0);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** True when the server closed this connection. */
    bool
    closedByPeer()
    {
        struct timeval tv = {5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        uint8_t byte;
        return ::recv(fd, &byte, 1, 0) == 0;
    }

    int fd = -1;
};

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counterValue(name);
}

/**
 * Result of records [first, first + count) of mcf_like `input_idx`
 * straight from the VM (by default the whole trace).
 */
DirectResult
vmDirectRun(const std::string &predictor, uint32_t input_idx,
            uint64_t first = 0, uint64_t count = kTraceLen)
{
    VectorSink trace;
    runTrace(findWorkload("mcf_like").build(input_idx), {&trace},
             kTraceLen);
    auto bp = makePredictor(predictor);
    PredictorSim sim(*bp, /*collect_per_branch=*/false);
    for (uint64_t i = first; i < first + count; ++i)
        sim.onRecord(trace.get().at(i));
    sim.onEnd();
    return {sim.condExecs(), sim.condMispreds(),
            doubleBits(sim.accuracy())};
}

/** The corpus key of a whole-trace mcf_like request. */
TraceCacheKey
corpusKey(uint32_t input_idx)
{
    const Workload workload = findWorkload("mcf_like");
    const WorkloadInput &input = workload.inputs.at(input_idx);
    return TraceCacheKey{workload.name, input.label, input.seed,
                         kTraceLen};
}

/** Publish the first `records` records of the input under its key. */
void
publishPrefix(const TraceCache &cache, uint32_t input_idx,
              uint64_t records)
{
    const TraceCacheKey key = corpusKey(input_idx);
    const std::string staging = cache.stagingPath(key);
    {
        TraceStoreWriter writer(staging);
        runTrace(findWorkload("mcf_like").build(input_idx), {&writer},
                 records);
        ASSERT_TRUE(writer.status().ok()) << writer.status().str();
    }
    ASSERT_TRUE(cache.publish(staging, key).ok());
}

/** One fully populated request of every request type. */
std::vector<ServeRequest>
sampleRequests()
{
    std::vector<ServeRequest> out;
    ServeRequest ping;
    ping.type = MessageType::Ping;
    out.push_back(ping);
    ServeRequest stats;
    stats.type = MessageType::Stats;
    out.push_back(stats);
    ServeRequest sim = simulateRequest("gshare", 100, 5000);
    sim.deadlineMs = 250;
    out.push_back(sim);
    ServeRequest branchStats;
    branchStats.type = MessageType::BranchStats;
    branchStats.workload = "xz_like";
    branchStats.inputIdx = 2;
    branchStats.instructions = 90000;
    branchStats.predictor = "tage-sc-l-8KB";
    branchStats.sliceLength = 3000;
    branchStats.topK = 16;
    branchStats.deadlineMs = 40;
    out.push_back(branchStats);
    ServeRequest mat;
    mat.type = MessageType::Materialize;
    mat.workload = "mcf_like";
    mat.inputIdx = 1;
    mat.instructions = 77777;
    mat.deadlineMs = 9;
    out.push_back(mat);
    return out;
}

/**
 * One fully populated reply of every reply type, each with its own
 * message and retry-after hint.
 */
std::vector<ServeReply>
sampleReplies()
{
    std::vector<ServeReply> out;
    const auto base = [&out](MessageType type) -> ServeReply & {
        const uint64_t salt = out.size() + 1;
        ServeReply r;
        r.type = type;
        r.message = "reply " + std::to_string(salt);
        r.retryAfterMs = static_cast<uint32_t>(100 * salt);
        out.push_back(r);
        return out.back();
    };
    base(MessageType::PingReply).serverInfo = "bpnsp-serve-v3 workers=2";
    {
        ServeReply &r = base(MessageType::SimulateReply);
        r.delivered = kTraceLen;
        r.condExecs = 12345;
        r.condMispreds = 678;
        r.accuracyBits = doubleBits(0.9451234567890123);
    }
    {
        ServeReply &r = base(MessageType::BranchStatsReply);
        r.delivered = 1000;
        r.condExecs = 200;
        r.condMispreds = 20;
        r.branches = {{0x40, 10, 2, 5}, {0x88, 190, 18, 100}};
        r.targetClasses = {
            {static_cast<uint8_t>(InstrClass::Call), 50, 0},
            {static_cast<uint8_t>(InstrClass::Ret), 50, 3},
            {static_cast<uint8_t>(InstrClass::JumpInd), 7, 4},
            {static_cast<uint8_t>(InstrClass::CallInd), 0, 0},
        };
    }
    {
        ServeReply &r = base(MessageType::MaterializeReply);
        r.digest = "0123abcd";
        r.records = 77777;
        r.path = "/corpus/0123abcd.bpt";
    }
    base(MessageType::StatsReply).statsJson = "{\"counters\": {}}";
    {
        ServeReply &r = base(MessageType::Error);
        r.code = WireCode::ResourceExhausted;
    }
    return out;
}

/** Field-by-field equality of two requests. */
void
expectSameRequest(const ServeRequest &want, const ServeRequest &got)
{
    SCOPED_TRACE(messageTypeName(want.type));
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.workload, want.workload);
    EXPECT_EQ(got.inputIdx, want.inputIdx);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.predictor, want.predictor);
    EXPECT_EQ(got.first, want.first);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.sliceLength, want.sliceLength);
    EXPECT_EQ(got.topK, want.topK);
    EXPECT_EQ(got.deadlineMs, want.deadlineMs);
}

/** Field-by-field equality of two replies. */
void
expectSameReply(const ServeReply &want, const ServeReply &got)
{
    SCOPED_TRACE(messageTypeName(want.type));
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.message, want.message);
    EXPECT_EQ(got.retryAfterMs, want.retryAfterMs);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.condExecs, want.condExecs);
    EXPECT_EQ(got.condMispreds, want.condMispreds);
    EXPECT_EQ(got.accuracyBits, want.accuracyBits);
    ASSERT_EQ(got.branches.size(), want.branches.size());
    for (size_t i = 0; i < want.branches.size(); ++i) {
        EXPECT_EQ(got.branches[i].ip, want.branches[i].ip);
        EXPECT_EQ(got.branches[i].execs, want.branches[i].execs);
        EXPECT_EQ(got.branches[i].mispreds, want.branches[i].mispreds);
        EXPECT_EQ(got.branches[i].taken, want.branches[i].taken);
    }
    ASSERT_EQ(got.targetClasses.size(), want.targetClasses.size());
    for (size_t i = 0; i < want.targetClasses.size(); ++i) {
        EXPECT_EQ(got.targetClasses[i].cls, want.targetClasses[i].cls);
        EXPECT_EQ(got.targetClasses[i].execs,
                  want.targetClasses[i].execs);
        EXPECT_EQ(got.targetClasses[i].targetMispreds,
                  want.targetClasses[i].targetMispreds);
    }
    EXPECT_EQ(got.digest, want.digest);
    EXPECT_EQ(got.records, want.records);
    EXPECT_EQ(got.path, want.path);
    EXPECT_EQ(got.serverInfo, want.serverInfo);
    EXPECT_EQ(got.statsJson, want.statsJson);
}

// --- protocol round trips --------------------------------------------

TEST(ServeProtocol, FrameHeaderRoundTrip)
{
    std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 42, payload, &frame)
                    .ok());
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

    FrameHeader header;
    ASSERT_TRUE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
    EXPECT_EQ(header.magic, kFrameMagic);
    EXPECT_EQ(header.version, kProtocolVersion);
    EXPECT_EQ(static_cast<MessageType>(header.type),
              MessageType::Simulate);
    EXPECT_EQ(header.requestId, 42u);
    EXPECT_EQ(header.payloadLen, payload.size());
    EXPECT_TRUE(
        verifyFramePayload(header, frame.data() + kFrameHeaderBytes)
            .ok());
}

TEST(ServeProtocol, RequestPayloadRoundTrip)
{
    for (const ServeRequest &request : sampleRequests()) {
        const std::vector<uint8_t> payload =
            encodeRequestPayload(request);
        ServeRequest out;
        ASSERT_TRUE(decodeRequestPayload(request.type, payload.data(),
                                         payload.size(), &out)
                        .ok())
            << messageTypeName(request.type);
        expectSameRequest(request, out);
    }
}

TEST(ServeProtocol, ReplyPayloadRoundTrip)
{
    // Every reply type, with its retry-after hint and (for
    // BranchStatsReply) the target-class block.
    for (const ServeReply &reply : sampleReplies()) {
        const std::vector<uint8_t> payload = encodeReplyPayload(reply);
        ServeReply out;
        ASSERT_TRUE(decodeReplyPayload(reply.type, payload.data(),
                                       payload.size(), &out)
                        .ok())
            << messageTypeName(reply.type);
        expectSameReply(reply, out);
    }
}

TEST(ServeProtocol, TrailingBytesAreRefused)
{
    // One layout per type: a payload with bytes left over is corrupt,
    // for every request and every reply type.
    for (const ServeRequest &request : sampleRequests()) {
        std::vector<uint8_t> payload = encodeRequestPayload(request);
        payload.push_back(0xAB);
        ServeRequest out;
        EXPECT_EQ(decodeRequestPayload(request.type, payload.data(),
                                       payload.size(), &out)
                      .code(),
                  StatusCode::CorruptData)
            << messageTypeName(request.type);
    }
    for (const ServeReply &reply : sampleReplies()) {
        std::vector<uint8_t> payload = encodeReplyPayload(reply);
        payload.push_back(0xAB);
        ServeReply out;
        EXPECT_EQ(decodeReplyPayload(reply.type, payload.data(),
                                     payload.size(), &out)
                      .code(),
                  StatusCode::CorruptData)
            << messageTypeName(reply.type);
    }
}

// --- frame-decoder hardening (no sockets) ----------------------------

TEST(ServeProtocol, TruncatedHeaderIsRefused)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    FrameHeader header;
    for (size_t len = 0; len < kFrameHeaderBytes; ++len)
        EXPECT_FALSE(
            parseFrameHeader(frame.data(), len, &header).ok());
}

TEST(ServeProtocol, BadMagicIsRefused)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    frame[0] ^= 0xFF;
    FrameHeader header;
    const Status st =
        parseFrameHeader(frame.data(), frame.size(), &header);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
}

TEST(ServeProtocol, V1FrameHeaderIsRefusedWithInvalidArgument)
{
    // A well-formed frame from a v1 or v2 peer: right magic, every
    // field sane, only the version word differs.
    for (const uint16_t version : {uint16_t{1}, uint16_t{2}}) {
        SCOPED_TRACE(version);
        std::vector<uint8_t> frame;
        ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
        std::memcpy(frame.data() + 4, &version, sizeof(version));
        FrameHeader header;
        const Status st =
            parseFrameHeader(frame.data(), frame.size(), &header);
        EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << st.str();
    }
}

TEST(ServeProtocol, UnsupportedVersionIsRefused)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    frame[4] = 99;   // version word
    FrameHeader header;
    EXPECT_FALSE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
}

TEST(ServeProtocol, OversizedLengthPrefixIsRefusedBeforeBuffering)
{
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Ping, 1, {}, &frame).ok());
    const uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(frame.data() + 16, &huge, sizeof(huge));
    FrameHeader header;
    EXPECT_FALSE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
}

TEST(ServeProtocol, CorruptChecksumIsDetected)
{
    const std::vector<uint8_t> payload = {10, 20, 30};
    std::vector<uint8_t> frame;
    ASSERT_TRUE(
        encodeFrame(MessageType::Simulate, 7, payload, &frame).ok());
    frame[kFrameHeaderBytes + 1] ^= 0x01;   // flip one payload bit
    FrameHeader header;
    ASSERT_TRUE(
        parseFrameHeader(frame.data(), frame.size(), &header).ok());
    const Status st =
        verifyFramePayload(header, frame.data() + kFrameHeaderBytes);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
}

TEST(ServeProtocol, MalformedPayloadNeverCrashesDecoder)
{
    // Adversarial bytes into every request decoder: must produce a
    // Status, never a crash or an unbounded allocation.
    std::vector<uint8_t> junk(64);
    for (size_t i = 0; i < junk.size(); ++i)
        junk[i] = static_cast<uint8_t>(i * 37 + 11);
    for (const MessageType type :
         {MessageType::Simulate, MessageType::BranchStats,
          MessageType::Materialize}) {
        ServeRequest out;
        for (size_t len = 0; len <= junk.size(); ++len)
            decodeRequestPayload(type, junk.data(), len, &out);
    }
    // Every field is read unconditionally, so a well-formed payload
    // cut at any length short of its end is refused.
    for (const ServeRequest &request : sampleRequests()) {
        const std::vector<uint8_t> full = encodeRequestPayload(request);
        for (size_t len = 0; len < full.size(); ++len) {
            ServeRequest out;
            EXPECT_FALSE(
                decodeRequestPayload(request.type, full.data(), len, &out)
                    .ok())
                << messageTypeName(request.type) << " cut at " << len;
        }
    }
    for (const ServeReply &sample : sampleReplies()) {
        const std::vector<uint8_t> full = encodeReplyPayload(sample);
        for (size_t len = 0; len < full.size(); ++len) {
            ServeReply out;
            EXPECT_FALSE(
                decodeReplyPayload(sample.type, full.data(), len, &out)
                    .ok())
                << messageTypeName(sample.type) << " cut at " << len;
        }
    }
    // A reply whose row count claims more than the payload holds is
    // refused without allocating for the claimed count. With no rows,
    // the row count is followed only by the (empty) target-class
    // block's u32 count.
    ServeReply reply;
    reply.type = MessageType::BranchStatsReply;
    std::vector<uint8_t> payload = encodeReplyPayload(reply);
    const uint32_t lying = 0x00FFFFFF;
    std::memcpy(payload.data() + payload.size() - 8, &lying, 4);
    ServeReply out;
    const Status st =
        decodeReplyPayload(MessageType::BranchStatsReply,
                           payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
    EXPECT_TRUE(out.branches.empty());
}

TEST(ServeProtocol, ReplyPrefixCarriesRetryHintOnEveryType)
{
    // The v3 layout: every reply starts code, message, retry-after
    // hint, whatever its type.
    for (const ServeReply &reply : sampleReplies()) {
        const std::vector<uint8_t> payload = encodeReplyPayload(reply);
        WireReader r(payload.data(), payload.size());
        uint16_t code = 0;
        std::string message;
        uint32_t retryAfterMs = 0;
        r.u16(&code);
        r.str(&message);
        r.u32(&retryAfterMs);
        ASSERT_TRUE(r.ok()) << messageTypeName(reply.type);
        EXPECT_EQ(static_cast<WireCode>(code), reply.code);
        EXPECT_EQ(message, reply.message);
        EXPECT_EQ(retryAfterMs, reply.retryAfterMs);
    }
}

// --- server behavior -------------------------------------------------

TEST_F(ServeTest, PingAndServerInfo)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    ASSERT_TRUE(client.ping(&info).ok());
    EXPECT_NE(info.find("bpnsp-serve-v3"), std::string::npos);
}

TEST_F(ServeTest, SimulateMatchesDirectRunBitForBit)
{
    startServer();
    // Expected values from the canonical in-process path, through the
    // same trace cache directory the server serves from.
    setTraceCacheDir(scratch->file("cache"));
    const DirectResult gshare = directRun("gshare");
    const DirectResult bimodal = directRun("bimodal");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    for (const auto &[predictor, expect] :
         {std::pair<std::string, DirectResult>{"gshare", gshare},
          {"bimodal", bimodal}}) {
        ServeReply reply;
        ASSERT_TRUE(
            client.call(simulateRequest(predictor), &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
        EXPECT_EQ(reply.delivered, kTraceLen);
        EXPECT_EQ(reply.condExecs, expect.condExecs);
        EXPECT_EQ(reply.condMispreds, expect.condMispreds);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(reply.accuracyBits, expect.accuracyBits);
    }
}

TEST_F(ServeTest, ConcurrentClientsAllMatchDirectRuns)
{
    startServer(/*workers=*/3, /*queue_depth=*/64);
    setTraceCacheDir(scratch->file("cache"));
    const DirectResult gshare = directRun("gshare");
    const DirectResult bimodal = directRun("bimodal");

    // N concurrent clients mixing two predictors over the same trace:
    // every reply must be bit-identical to the direct run.
    constexpr unsigned kClients = 6;
    constexpr unsigned kRequestsEach = 3;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ServeClient client;
            if (!client.connectUnix(socketPath()).ok()) {
                ++failures;
                return;
            }
            for (unsigned i = 0; i < kRequestsEach; ++i) {
                const bool useGshare = (c + i) % 2 == 0;
                const DirectResult &expect =
                    useGshare ? gshare : bimodal;
                ServeReply reply;
                if (!client
                         .call(simulateRequest(useGshare ? "gshare"
                                                         : "bimodal"),
                               &reply)
                         .ok() ||
                    reply.code != WireCode::Ok ||
                    reply.condExecs != expect.condExecs ||
                    reply.condMispreds != expect.condMispreds ||
                    reply.accuracyBits != expect.accuracyBits) {
                    ++failures;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    // Drain first: workers bump serve.completed after sending the
    // reply, so the counter settles only once in-flight work is done.
    server->drain();
    EXPECT_GE(counterValue("serve.completed"),
              kClients * kRequestsEach);
}

TEST_F(ServeTest, SlicedSimulateMatchesDirectSlice)
{
    startServer();
    setTraceCacheDir(scratch->file("cache"));
    // Materialize, then compute the expected slice result directly.
    directRun("gshare");
    const Workload workload = findWorkload("mcf_like");
    const uint64_t first = 30000, count = 50000;

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    ASSERT_TRUE(
        client.call(simulateRequest("gshare", first, count), &reply)
            .ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.delivered, count);

    const TraceCacheKey key{workload.name,
                            workload.inputs.at(0).label,
                            workload.inputs.at(0).seed, kTraceLen};
    const TraceCache cache(scratch->file("cache"));
    Status st;
    auto reader = TraceStoreReader::open(cache.entryPath(key), &st);
    ASSERT_NE(reader, nullptr) << st.str();
    auto bp = makePredictor("gshare");
    PredictorSim sim(*bp, false);
    ASSERT_TRUE(reader->replayRange(first, count, sim).ok());
    EXPECT_EQ(reply.condExecs, sim.condExecs());
    EXPECT_EQ(reply.condMispreds, sim.condMispreds());
    EXPECT_EQ(reply.accuracyBits, doubleBits(sim.accuracy()));
}

TEST_F(ServeTest, DamagedCorpusEntriesAreQuarantinedAndRegenerated)
{
    startServer();
    const TraceCache cache(scratch->file("cache"));
    // Input 0 holds too few records; input 1 is truncated.
    publishPrefix(cache, 0, kTraceLen / 2);
    publishPrefix(cache, 1, kTraceLen);
    const std::string truncated = cache.entryPath(corpusKey(1));
    std::filesystem::resize_file(
        truncated, std::filesystem::file_size(truncated) / 2);
    const uint64_t before = counterValue("tracestore.cache.quarantined");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    for (uint32_t input = 0; input < 2; ++input) {
        SCOPED_TRACE("input " + std::to_string(input));
        ServeRequest request = simulateRequest("gshare");
        request.inputIdx = input;
        ServeReply reply;
        ASSERT_TRUE(client.call(request, &reply).ok());
        EXPECT_EQ(reply.code, WireCode::CorruptData) << reply.message;
        EXPECT_TRUE(std::filesystem::exists(
            scratch->file("cache/" + traceCacheDigest(corpusKey(input)) +
                          ".quarantine.0")));

        // The next request regenerates the entry from the VM.
        ASSERT_TRUE(client.call(request, &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
        const DirectResult expect = vmDirectRun("gshare", input);
        EXPECT_EQ(reply.condExecs, expect.condExecs);
        EXPECT_EQ(reply.condMispreds, expect.condMispreds);
        EXPECT_EQ(reply.accuracyBits, expect.accuracyBits);
    }
    EXPECT_EQ(counterValue("tracestore.cache.quarantined"), before + 2);
}

TEST_F(ServeTest, InPlaceDamageUnderAnOpenReaderIsQuarantined)
{
    // The fixture's chunk cache is off, so every replay re-reads and
    // re-verifies the mapped bytes.
    startServer();
    ServeRequest stats;
    stats.type = MessageType::BranchStats;
    stats.workload = "mcf_like";
    stats.instructions = kTraceLen;
    stats.predictor = "gshare";
    // A partial replay that starts inside the damaged first chunk.
    const uint64_t first = 10000, count = 50000;
    const ServeRequest slice = simulateRequest("gshare", first, count);

    const DirectResult direct = vmDirectRun("gshare", 0);
    const DirectResult directSlice =
        vmDirectRun("gshare", 0, first, count);

    const std::string entry =
        TraceCache(scratch->file("cache")).entryPath(corpusKey(0));
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    for (const ServeRequest &request : {stats, slice}) {
        SCOPED_TRACE(messageTypeName(request.type));
        // Open the key; its reader stays mapped across the damage.
        ServeReply reply;
        ASSERT_TRUE(client.call(stats, &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;

        // Flip one payload byte of the first chunk in place, not by
        // rename, so the open mapping sees it.
        {
            std::fstream file(entry, std::ios::in | std::ios::out |
                                         std::ios::binary);
            const std::streamoff at = sizeof(StoreFileHeader) +
                                      sizeof(StoreChunkHeader) + 7;
            char byte = 0;
            file.seekg(at);
            ASSERT_TRUE(file.get(byte));
            file.seekp(at);
            file.put(static_cast<char>(byte ^ 0xff));
            ASSERT_TRUE(file.flush());
        }
        const uint64_t before =
            counterValue("tracestore.cache.quarantined");
        ASSERT_TRUE(client.call(request, &reply).ok());
        EXPECT_EQ(reply.code, WireCode::CorruptData) << reply.message;
        EXPECT_EQ(counterValue("tracestore.cache.quarantined"),
                  before + 1);

        // The next request regenerates the entry from the VM.
        ASSERT_TRUE(client.call(request, &reply).ok());
        ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
        if (request.type == MessageType::BranchStats) {
            EXPECT_EQ(reply.delivered, kTraceLen);
            EXPECT_EQ(reply.condExecs, direct.condExecs);
            EXPECT_EQ(reply.condMispreds, direct.condMispreds);
        } else {
            EXPECT_EQ(reply.delivered, count);
            EXPECT_EQ(reply.condExecs, directSlice.condExecs);
            EXPECT_EQ(reply.condMispreds, directSlice.condMispreds);
            EXPECT_EQ(reply.accuracyBits, directSlice.accuracyBits);
        }
    }
}

TEST_F(ServeTest, UnreadableCorpusEntryIsLeftInPlace)
{
    startServer();
    const TraceCache cache(scratch->file("cache"));
    publishPrefix(cache, 0, kTraceLen);
    const uint64_t before = counterValue("tracestore.cache.quarantined");
    const uint64_t generatedBefore =
        counterValue("serve.generated_traces");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    ASSERT_TRUE(faultsim::configure("tracestore.read.eio").ok());
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    faultsim::reset();
    EXPECT_EQ(reply.code, WireCode::IoError) << reply.message;
    EXPECT_EQ(counterValue("tracestore.cache.quarantined"), before);
    EXPECT_TRUE(cache.contains(corpusKey(0)));

    // The same entry serves once reads work again.
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    const DirectResult expect = vmDirectRun("gshare", 0);
    EXPECT_EQ(reply.condExecs, expect.condExecs);
    EXPECT_EQ(reply.condMispreds, expect.condMispreds);
    EXPECT_EQ(reply.accuracyBits, expect.accuracyBits);
    EXPECT_EQ(counterValue("serve.generated_traces"), generatedBefore);
}

TEST_F(ServeTest, InvalidRequestsGetCleanErrorsAndConnectionSurvives)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    ServeRequest request = simulateRequest("gshare");
    request.workload = "no_such_workload";
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("no_such_predictor");
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("gshare");
    request.inputIdx = 999;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("gshare", kTraceLen + 1, 0);
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    request = simulateRequest("gshare");
    request.instructions = 0;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::InvalidArgument);

    // After all that abuse the connection still serves real work.
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, BranchStatsReplies)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    ServeRequest request;
    request.type = MessageType::BranchStats;
    request.workload = "mcf_like";
    request.instructions = kTraceLen;
    request.predictor = "gshare";
    request.topK = 5;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.delivered, kTraceLen);
    EXPECT_GT(reply.condExecs, 0u);
    ASSERT_LE(reply.branches.size(), 5u);
    ASSERT_FALSE(reply.branches.empty());
    // Rows arrive most-mispredicted first.
    for (size_t i = 1; i < reply.branches.size(); ++i)
        EXPECT_GE(reply.branches[i - 1].mispreds,
                  reply.branches[i].mispreds);
    // The per-class target block arrives in the analysis layer's
    // stable order: Call, Ret, JumpInd, CallInd. mcf_like is a
    // call-heavy workload, so the Call/Ret rows must have executions.
    ASSERT_EQ(reply.targetClasses.size(), 4u);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[0].cls),
              InstrClass::Call);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[1].cls),
              InstrClass::Ret);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[2].cls),
              InstrClass::JumpInd);
    EXPECT_EQ(static_cast<InstrClass>(reply.targetClasses[3].cls),
              InstrClass::CallInd);
    EXPECT_GT(reply.targetClasses[0].execs, 0u);
    EXPECT_GT(reply.targetClasses[1].execs, 0u);
    for (const TargetClassStat &row : reply.targetClasses)
        EXPECT_LE(row.targetMispreds, row.execs);
}

TEST_F(ServeTest, MaterializePublishesIntoTheCorpus)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeRequest request;
    request.type = MessageType::Materialize;
    request.workload = "xz_like";
    request.instructions = 60000;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;
    EXPECT_EQ(reply.records, 60000u);
    EXPECT_FALSE(reply.digest.empty());
    EXPECT_TRUE(std::filesystem::exists(reply.path));
}

TEST_F(ServeTest, BackpressureRejectsWithResourceExhausted)
{
    // One stalled worker, a queue of one: a burst must overflow the
    // admission queue and be rejected, not buffered without bound.
    startServer(/*workers=*/1, /*queue_depth=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall").ok());

    const uint64_t rejectedBefore = counterValue("serve.rejected");
    const uint64_t shedBefore = counterValue("serve.shed");
    constexpr unsigned kBurst = 12;
    std::atomic<unsigned> rejected{0}, hinted{0}, okOrOther{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kBurst; ++c) {
        threads.emplace_back([&] {
            ServeClient client;
            if (!client.connectUnix(socketPath()).ok())
                return;
            ServeReply reply;
            if (!client.call(simulateRequest("gshare"), &reply).ok())
                return;
            if (reply.code == WireCode::ResourceExhausted) {
                ++rejected;
                if (reply.retryAfterMs > 0)
                    ++hinted;
            } else {
                ++okOrOther;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_GT(rejected.load(), 0u);
    // Every count-bound refusal tells the client when to come back.
    EXPECT_EQ(hinted.load(), rejected.load());
    EXPECT_GT(okOrOther.load(), 0u);   // the queue still served some
    EXPECT_GT(counterValue("serve.rejected"), rejectedBefore);
    EXPECT_GT(counterValue("serve.shed"), shedBefore);
}

TEST_F(ServeTest, QueuedRequestsRunInArrivalOrder)
{
    // One worker, stalled on its first request: everything sent while
    // it stalls queues, and the worker then takes it oldest first
    // whatever the request type.
    startServer(/*workers=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall*1").ok());

    ServeRequest read;
    read.type = MessageType::BranchStats;
    read.workload = "mcf_like";
    read.instructions = kTraceLen;
    read.predictor = "gshare";
    read.topK = 4;

    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 1,
                            encodeRequestPayload(
                                simulateRequest("gshare")),
                            &frame)
                    .ok());
    raw.send(frame);
    // Let the worker pop #1 and stall (>= 25 ms) before the rest.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    std::vector<uint8_t> burst;
    const std::vector<std::pair<uint64_t, ServeRequest>> queued = {
        {2, simulateRequest("bimodal")},
        {3, simulateRequest("gshare")},
        {4, read}};
    for (const auto &[id, request] : queued) {
        ASSERT_TRUE(encodeFrame(request.type, id,
                                encodeRequestPayload(request), &frame)
                        .ok());
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    raw.send(burst);

    for (uint64_t want = 1; want <= 4; ++want) {
        FrameHeader header;
        std::vector<uint8_t> payload;
        ASSERT_TRUE(raw.recvFrame(&header, &payload));
        EXPECT_EQ(header.requestId, want);
        EXPECT_EQ(static_cast<MessageType>(header.type),
                  want == 4 ? MessageType::BranchStatsReply
                            : MessageType::SimulateReply);
    }
}

TEST_F(ServeTest, StartRefusesAnOutOfRangePoolBeforeBinding)
{
    // A pool size or queue bound that came from an unchecked cast
    // (--threads=-1, --queue-depth=-1) is refused before any thread
    // exists or the socket is bound.
    scratch = std::make_unique<ScratchDir>("StartRefusesOutOfRange");
    const auto refused = [&](unsigned workers, size_t queue_depth) {
        ServeConfig config;
        config.socketPath = scratch->file("s.sock");
        config.workers = workers;
        config.queueDepth = queue_depth;
        config.traceCacheDir = scratch->file("cache");
        ServeServer bad(std::move(config));
        const Status st = bad.start();
        return st.code() == StatusCode::InvalidArgument &&
               !bad.running() &&
               !std::filesystem::exists(scratch->file("s.sock"));
    };
    EXPECT_TRUE(refused(100000, 32));
    EXPECT_TRUE(refused(0, 32));
    EXPECT_TRUE(refused(kMaxServeWorkers + 1, 32));
    EXPECT_TRUE(refused(2, 0));
}

TEST(ServeLoadGen, RefusesAnOutOfRangeClientCountBeforeStarting)
{
    // No server: a refused config must return before it connects or
    // starts a single client thread.
    LoadGenConfig cfg;
    cfg.socketPath = "/nonexistent/bpnsp.sock";
    LoadGenResult result;
    for (const unsigned clients : {0u, kMaxLoadGenClients + 1, 100000u}) {
        cfg.clients = clients;
        EXPECT_EQ(runLoadGen(cfg, &result).code(),
                  StatusCode::InvalidArgument)
            << clients;
        EXPECT_EQ(result.attempted, 0u);
    }
}

TEST(ServeLoadGen, RefusesAnOutOfRangeRequestCountBeforeStarting)
{
    LoadGenConfig cfg;
    cfg.socketPath = "/nonexistent/bpnsp.sock";
    LoadGenResult result;
    for (const unsigned requests : {0u, kMaxLoadGenRequests + 1}) {
        cfg.requestsPerClient = requests;
        EXPECT_EQ(runLoadGen(cfg, &result).code(),
                  StatusCode::InvalidArgument)
            << requests;
        EXPECT_EQ(result.attempted, 0u);
    }
}

TEST_F(ServeTest, DeadlineExceededOnSlowRequest)
{
    startServer();
    setTraceCacheDir(scratch->file("cache"));
    directRun("gshare");   // materialize so the deadline hits replay

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeRequest request = simulateRequest("tage-sc-l-64KB");
    request.deadlineMs = 1;
    ServeReply reply;
    ASSERT_TRUE(client.call(request, &reply).ok());
    EXPECT_EQ(reply.code, WireCode::DeadlineExceeded)
        << wireCodeName(reply.code) << ": " << reply.message;
}

TEST_F(ServeTest, MidFrameDisconnectIsHandledCleanly)
{
    startServer();
    const uint64_t resetsBefore = counterValue("serve.conn_resets");
    {
        RawConn raw(socketPath());
        ASSERT_TRUE(raw.ok());
        std::vector<uint8_t> frame;
        ASSERT_TRUE(encodeFrame(MessageType::Simulate, 9,
                                encodeRequestPayload(
                                    simulateRequest("gshare")),
                                &frame)
                        .ok());
        frame.resize(kFrameHeaderBytes + 3);   // truncate mid-frame
        raw.send(frame);
        // Destructor closes the socket: a disconnect mid-frame.
    }
    // The server must survive and keep serving.
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
    EXPECT_GT(counterValue("serve.conn_resets"), resetsBefore);
}

TEST_F(ServeTest, GarbageBytesGetErrorReplyAndClose)
{
    startServer();
    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> garbage(kFrameHeaderBytes, 0x5A);
    raw.send(garbage);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    EXPECT_TRUE(raw.closedByPeer());

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, V1FrameOnTheWireGetsInvalidArgumentAndClose)
{
    startServer();
    for (const uint16_t version : {uint16_t{1}, uint16_t{2}}) {
        SCOPED_TRACE(version);
        RawConn raw(socketPath());
        ASSERT_TRUE(raw.ok());
        std::vector<uint8_t> frame;
        ASSERT_TRUE(encodeFrame(MessageType::Ping, 5, {}, &frame).ok());
        std::memcpy(frame.data() + 4, &version, sizeof(version));
        raw.send(frame);
        FrameHeader header;
        std::vector<uint8_t> payload;
        ASSERT_TRUE(raw.recvFrame(&header, &payload));
        ASSERT_EQ(static_cast<MessageType>(header.type),
                  MessageType::Error);
        ServeReply reply;
        ASSERT_TRUE(decodeReplyPayload(MessageType::Error,
                                       payload.data(), payload.size(),
                                       &reply)
                        .ok());
        EXPECT_EQ(reply.code, WireCode::InvalidArgument)
            << reply.message;
        EXPECT_TRUE(raw.closedByPeer());
    }
}

TEST_F(ServeTest, RetiredTypesGetInvalidArgumentAndClose)
{
    // Type 7 (H2p) carried the BranchStats request layout, type 8 its
    // reply, and type 16 a u64 target request id. A well-framed frame
    // of each shape (valid magic, version, length and checksum) is now
    // refused like any unknown type, never parsed as a request.
    ServeRequest h2p;
    h2p.type = MessageType::BranchStats;
    h2p.workload = "mcf_like";
    h2p.instructions = kTraceLen;
    h2p.predictor = "gshare";
    h2p.sliceLength = 30000;
    const std::vector<std::pair<uint16_t, std::vector<uint8_t>>> frames =
        {{7, encodeRequestPayload(h2p)},
         {8, encodeReplyPayload(ServeReply())},
         {16, std::vector<uint8_t>(8, 0x01)}};
    startServer();
    for (const auto &[type, body] : frames) {
        SCOPED_TRACE(type);
        RawConn raw(socketPath());
        ASSERT_TRUE(raw.ok());
        std::vector<uint8_t> frame;
        ASSERT_TRUE(encodeFrame(static_cast<MessageType>(type), 7, body,
                                &frame)
                        .ok());
        raw.send(frame);
        FrameHeader header;
        std::vector<uint8_t> payload;
        ASSERT_TRUE(raw.recvFrame(&header, &payload));
        EXPECT_EQ(header.requestId, 7u);
        ASSERT_EQ(static_cast<MessageType>(header.type),
                  MessageType::Error);
        ServeReply reply;
        ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                       payload.size(), &reply)
                        .ok());
        EXPECT_EQ(reply.code, WireCode::InvalidArgument) << reply.message;
        EXPECT_TRUE(raw.closedByPeer());
    }
}

TEST_F(ServeTest, CorruptChecksumOnWireGetsCorruptDataAndClose)
{
    startServer();
    const uint64_t corruptBefore = counterValue("serve.frames_corrupt");
    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 11,
                            encodeRequestPayload(
                                simulateRequest("gshare")),
                            &frame)
                    .ok());
    frame[kFrameHeaderBytes] ^= 0x40;   // corrupt payload, stale crc
    raw.send(frame);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    ServeReply reply;
    ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                   payload.size(), &reply)
                    .ok());
    EXPECT_EQ(reply.code, WireCode::CorruptData);
    EXPECT_TRUE(raw.closedByPeer());
    EXPECT_GT(counterValue("serve.frames_corrupt"), corruptBefore);
}

TEST_F(ServeTest, FrameCorruptFailpointFiresTheSamePath)
{
    startServer();
    ASSERT_TRUE(faultsim::configure("serve.frame.corrupt*1").ok());
    const uint64_t corruptBefore = counterValue("serve.frames_corrupt");

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    ServeReply reply;
    const Status st = client.call(simulateRequest("gshare"), &reply);
    // The injected flip surfaces as a CorruptData error reply (and the
    // server closes the connection afterwards).
    if (st.ok()) {
        EXPECT_EQ(reply.code, WireCode::CorruptData);
    }
    EXPECT_GT(counterValue("serve.frames_corrupt"), corruptBefore);

    // One fire only: a fresh connection works.
    ServeClient again;
    ASSERT_TRUE(again.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(again.ping(&info).ok());
}

TEST_F(ServeTest, AcceptFailpointDropsOneConnection)
{
    startServer();
    ASSERT_TRUE(faultsim::configure("serve.accept.fail*1").ok());
    // The first connection is accepted then immediately closed.
    {
        RawConn raw(socketPath());
        ASSERT_TRUE(raw.ok());
        EXPECT_TRUE(raw.closedByPeer());
    }
    EXPECT_GE(counterValue("serve.accept_failures"), 1u);
    // The next one is served normally.
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, DrainFinishesInFlightThenRefusesNewConnections)
{
    startServer(/*workers=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall*1").ok());

    // An in-flight (stalled) request issued before the drain...
    std::atomic<bool> gotReply{false};
    std::atomic<bool> replyOk{false};
    std::thread inflight([&] {
        ServeClient client;
        if (!client.connectUnix(socketPath()).ok())
            return;
        ServeReply reply;
        if (client.call(simulateRequest("gshare"), &reply).ok()) {
            gotReply.store(true);
            replyOk.store(reply.code == WireCode::Ok);
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // ...must complete during the graceful drain.
    server->drain();
    inflight.join();
    EXPECT_TRUE(gotReply.load());
    EXPECT_TRUE(replyOk.load());

    // And the drained server refuses new connections.
    ServeClient late;
    EXPECT_FALSE(late.connectUnix(socketPath()).ok());
    server.reset();   // already drained; destructor is a no-op
}

TEST_F(ServeTest, DrainClosesSeveralOpenConnections)
{
    // Shutdown closes every connection still open; with more than one
    // it must not walk the connection list while erasing from it.
    startServer();
    std::vector<ServeClient> clients(3);
    for (ServeClient &client : clients) {
        ASSERT_TRUE(client.connectUnix(socketPath()).ok());
        std::string info;
        ASSERT_TRUE(client.ping(&info).ok());   // accepted by now
    }
    server->drain();
    server.reset();
}

TEST_F(ServeTest, CallReconnectsAfterADaemonRestart)
{
    // call() sends once. The call that meets the dropped connection
    // fails and closes the socket; the next call() on the same client
    // reconnects to the remembered path before it sends.
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    ASSERT_TRUE(client.ping(&info).ok());

    const ServeConfig config = server->config();
    server->drain();
    server = std::make_unique<ServeServer>(config);
    ASSERT_TRUE(server->start().ok());

    EXPECT_FALSE(client.ping(&info).ok());
    EXPECT_FALSE(client.connected());
    EXPECT_TRUE(client.ping(&info).ok());
    EXPECT_TRUE(client.connected());
}

TEST_F(ServeTest, LoadGenClosedLoopWithKillsAndVerify)
{
    startServer(/*workers=*/3);
    setTraceCacheDir(scratch->file("cache"));
    LoadGenConfig cfg;
    cfg.socketPath = socketPath();
    cfg.clients = 4;
    cfg.requestsPerClient = 8;
    cfg.workload = "mcf_like";
    cfg.instructions = kTraceLen;
    cfg.predictors = {"gshare", "bimodal"};
    cfg.sliceRecords = 40000;
    cfg.killProb = 0.15;
    cfg.verify = true;
    LoadGenResult result;
    ASSERT_TRUE(runLoadGen(cfg, &result).ok());
    EXPECT_GT(result.ok, 0u);
    EXPECT_EQ(result.mismatches, 0u);
    EXPECT_GT(result.killed, 0u);
    // The server survived the kills and still serves.
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    std::string info;
    EXPECT_TRUE(client.ping(&info).ok());
}

TEST_F(ServeTest, DecodedChunkCacheServesRepeatedReplays)
{
    DecodedChunkCache::instance().setCapacityBytes(32 * 1024 * 1024);
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    ServeReply first;
    ASSERT_TRUE(
        client.call(simulateRequest("gshare"), &first).ok());
    ASSERT_EQ(first.code, WireCode::Ok) << first.message;
    const uint64_t hitsBefore =
        counterValue("tracestore.chunk_cache.hits");

    ServeReply second;
    ASSERT_TRUE(
        client.call(simulateRequest("bimodal"), &second).ok());
    ASSERT_EQ(second.code, WireCode::Ok) << second.message;
    // The second replay of the same store decodes nothing: every
    // chunk comes from the in-memory LRU.
    EXPECT_GT(counterValue("tracestore.chunk_cache.hits"),
              hitsBefore);
    // And the cached decode changes no results.
    EXPECT_EQ(first.delivered, second.delivered);
}

// --- live introspection ----------------------------------------------

TEST_F(ServeTest, StatsReturnsALiveSelfContainedSnapshot)
{
    startServer();
    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());

    // Work first, so the snapshot has something to show.
    ServeReply reply;
    ASSERT_TRUE(client.call(simulateRequest("gshare"), &reply).ok());
    ASSERT_EQ(reply.code, WireCode::Ok) << reply.message;

    const uint64_t statsBefore = counterValue("serve.stats_requests");
    std::string json;
    ASSERT_TRUE(client.stats(&json).ok());
    EXPECT_GT(counterValue("serve.stats_requests"), statsBefore);

    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(json, &doc).ok()) << json;
    EXPECT_EQ(doc.get("schema").asString(), "bpnsp-stats-v1");
    ASSERT_TRUE(doc.get("counters").isObject());
    // The Simulate above and this very Stats request are visible in
    // the live counters (serve.requests bumps before the render;
    // serve.completed would race — workers bump it after replying).
    EXPECT_GE(doc.get("counters").get("serve.requests").asUint(), 2u);
    EXPECT_GE(doc.get("counters").get("serve.stats_requests").asUint(),
              1u);
    ASSERT_TRUE(doc.get("histograms").isObject());
    EXPECT_TRUE(doc.get("histograms").has("serve.request_ns"));
}

TEST_F(ServeTest, StatsIsAnsweredUnderFullLoad)
{
    // Stats lives on the io thread: even with every worker busy and
    // the queue churning, introspection answers promptly.
    startServer(/*workers=*/2, /*queue_depth=*/16);
    std::atomic<bool> stopLoad{false};
    std::vector<std::thread> load;
    for (unsigned c = 0; c < 3; ++c) {
        load.emplace_back([&] {
            ServeClient client;
            if (!client.connectUnix(socketPath()).ok())
                return;
            while (!stopLoad.load()) {
                ServeReply reply;
                if (!client.call(simulateRequest("gshare"), &reply)
                         .ok())
                    return;
            }
        });
    }

    ServeClient client;
    ASSERT_TRUE(client.connectUnix(socketPath()).ok());
    for (int i = 0; i < 5; ++i) {
        std::string json;
        ASSERT_TRUE(client.stats(&json).ok()) << "stats call " << i;
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(json, &doc).ok());
        EXPECT_EQ(doc.get("schema").asString(), "bpnsp-stats-v1");
    }

    stopLoad.store(true);
    for (std::thread &t : load)
        t.join();
}

TEST_F(ServeTest, StatsIsAnsweredWhileDrainWaitsForInFlightWork)
{
    startServer(/*workers=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall*1").ok());

    // Connect the introspection client while the listener is open;
    // the drain closes the listener but keeps polling live conns.
    ServeClient statsClient;
    ASSERT_TRUE(statsClient.connectUnix(socketPath()).ok());

    std::atomic<bool> replyOk{false};
    std::thread inflight([&] {
        ServeClient client;
        if (!client.connectUnix(socketPath()).ok())
            return;
        ServeReply reply;
        if (client.call(simulateRequest("tage-sc-l-8KB"), &reply)
                .ok())
            replyOk.store(reply.code == WireCode::Ok);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    std::thread drainer([&] { server->drain(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    // The in-flight request is stalled in the single worker, the
    // drain is waiting on it — and Stats still answers.
    std::string json;
    EXPECT_TRUE(statsClient.stats(&json).ok());
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(json, &doc).ok());
    EXPECT_EQ(doc.get("schema").asString(), "bpnsp-stats-v1");

    drainer.join();
    inflight.join();
    EXPECT_TRUE(replyOk.load());
    server.reset();   // already drained
}

// --- deadline sweep --------------------------------------------------

TEST_F(ServeTest, DeadlineSweepExpiresQueuedRequestBeforeWorkerTime)
{
    // One worker, stalled on its first pop: a queued request whose
    // budget lapses while waiting is answered DEADLINE_EXCEEDED by
    // the queue sweep at the next pop, never reaching a worker.
    startServer(/*workers=*/1);
    ASSERT_TRUE(faultsim::configure("serve.worker.stall*1").ok());
    const uint64_t expiredBefore = counterValue("serve.expired");

    RawConn raw(socketPath());
    ASSERT_TRUE(raw.ok());
    std::vector<uint8_t> frame;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 1,
                            encodeRequestPayload(
                                simulateRequest("gshare")),
                            &frame)
                    .ok());
    raw.send(frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ServeRequest doomed = simulateRequest("bimodal");
    doomed.deadlineMs = 1;
    ASSERT_TRUE(encodeFrame(MessageType::Simulate, 2,
                            encodeRequestPayload(doomed), &frame)
                    .ok());
    raw.send(frame);

    // id 1's reply lands first (stall, then the replay); the next pop
    // sweeps id 2, by then far past its 1 ms budget.
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(header.requestId, 1u);
    ASSERT_TRUE(raw.recvFrame(&header, &payload));
    EXPECT_EQ(header.requestId, 2u);
    ASSERT_EQ(static_cast<MessageType>(header.type),
              MessageType::Error);
    ServeReply reply;
    ASSERT_TRUE(decodeReplyPayload(MessageType::Error, payload.data(),
                                   payload.size(), &reply)
                    .ok());
    EXPECT_EQ(reply.code, WireCode::DeadlineExceeded)
        << reply.message;
    EXPECT_GT(counterValue("serve.expired"), expiredBefore);
}

// --- retry policy, EINTR hardening ----------------------------------

TEST(ServeProtocol, BranchStatsTargetBlockRoundTripsAndBoundsItsCount)
{
    ServeReply reply;
    reply.type = MessageType::BranchStatsReply;
    reply.delivered = 1000;
    reply.condExecs = 200;
    reply.condMispreds = 20;
    reply.branches = {{0x40, 10, 2, 5}};
    reply.targetClasses = {
        {static_cast<uint8_t>(InstrClass::Call), 50, 0},
        {static_cast<uint8_t>(InstrClass::Ret), 50, 3},
        {static_cast<uint8_t>(InstrClass::JumpInd), 7, 4},
        {static_cast<uint8_t>(InstrClass::CallInd), 0, 0},
    };

    const std::vector<uint8_t> payload = encodeReplyPayload(reply);
    ServeReply out;
    ASSERT_TRUE(decodeReplyPayload(MessageType::BranchStatsReply,
                                   payload.data(), payload.size(),
                                   &out)
                    .ok());
    ASSERT_EQ(out.targetClasses.size(), 4u);
    EXPECT_EQ(static_cast<InstrClass>(out.targetClasses[1].cls),
              InstrClass::Ret);
    EXPECT_EQ(out.targetClasses[1].execs, 50u);
    EXPECT_EQ(out.targetClasses[1].targetMispreds, 3u);
    EXPECT_EQ(out.targetClasses[2].targetMispreds, 4u);
    // The direction fields in front of the block are untouched.
    EXPECT_EQ(out.condMispreds, 20u);
    ASSERT_EQ(out.branches.size(), 1u);
    EXPECT_EQ(out.branches[0].execs, 10u);

    // A count claiming more rows than the payload holds is refused.
    std::vector<uint8_t> lying = encodeReplyPayload(reply);
    const uint32_t bogus = 0x00FFFFFF;
    std::memcpy(lying.data() + lying.size() -
                    (4 + 17 * reply.targetClasses.size()),
                &bogus, 4);
    ServeReply refused;
    EXPECT_EQ(decodeReplyPayload(MessageType::BranchStatsReply,
                                 lying.data(), lying.size(), &refused)
                  .code(),
              StatusCode::CorruptData);
}

namespace {

void
sigusr1Noop(int)
{
    // Present only so SIGUSR1 interrupts blocking syscalls (no
    // SA_RESTART) instead of killing the process.
}

} // namespace

TEST(ServeEintr, SignalStormMidTransferDropsNoBytes)
{
    // Regression for the framed-socket EINTR audit: writeAllFd /
    // readExactFd must neither drop nor double-count bytes when
    // signals interrupt send/recv/poll mid-transfer. Before the
    // audit, an EINTR from poll() was treated as a wedged peer.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = sigusr1Noop;
    sa.sa_flags = 0;   // deliberately NOT SA_RESTART
    struct sigaction old;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    constexpr size_t kBytes = 4 << 20;
    std::vector<uint8_t> sent(kBytes);
    for (size_t i = 0; i < kBytes; ++i)
        sent[i] = static_cast<uint8_t>(i * 131 + 17);

    std::atomic<bool> done{false};
    std::thread writer([&] {
        EXPECT_TRUE(
            writeAllFd(fds[1], sent.data(), sent.size(), 10000).ok());
    });
    const pthread_t writerHandle = writer.native_handle();
    const pthread_t readerHandle = pthread_self();
    std::thread pummel([&] {
        while (!done.load()) {
            ::pthread_kill(writerHandle, SIGUSR1);
            ::pthread_kill(readerHandle, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    });

    std::vector<uint8_t> got(kBytes);
    const Status st = readExactFd(fds[0], got.data(), got.size());
    done.store(true);
    pummel.join();
    writer.join();
    ::close(fds[0]);
    ::close(fds[1]);
    ::sigaction(SIGUSR1, &old, nullptr);

    ASSERT_TRUE(st.ok()) << st.str();
    EXPECT_EQ(got, sent);   // bit-for-bit: nothing dropped or doubled
}

} // namespace
