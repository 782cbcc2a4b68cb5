#include "serve/protocol.hpp"

#include <cerrno>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/hash.hpp"

namespace bpnsp::serve {

// --- names -----------------------------------------------------------

const char *
messageTypeName(MessageType type)
{
    switch (type) {
      case MessageType::Invalid:
        return "invalid";
      case MessageType::Ping:
        return "ping";
      case MessageType::PingReply:
        return "ping-reply";
      case MessageType::Simulate:
        return "simulate";
      case MessageType::SimulateReply:
        return "simulate-reply";
      case MessageType::BranchStats:
        return "branch-stats";
      case MessageType::BranchStatsReply:
        return "branch-stats-reply";
      case MessageType::Materialize:
        return "materialize";
      case MessageType::MaterializeReply:
        return "materialize-reply";
      case MessageType::Error:
        return "error";
      case MessageType::Stats:
        return "stats";
      case MessageType::StatsReply:
        return "stats-reply";
    }
    return "unknown";
}

bool
isRequestType(MessageType type)
{
    switch (type) {
      case MessageType::Ping:
      case MessageType::Simulate:
      case MessageType::BranchStats:
      case MessageType::Materialize:
      case MessageType::Stats:
        return true;
      default:
        return false;
    }
}

const char *
wireCodeName(WireCode code)
{
    switch (code) {
      case WireCode::Ok:
        return "OK";
      case WireCode::InvalidArgument:
        return "INVALID_ARGUMENT";
      case WireCode::IoError:
        return "IO_ERROR";
      case WireCode::CorruptData:
        return "CORRUPT_DATA";
      case WireCode::Busy:
        return "BUSY";
      case WireCode::Cancelled:
        return "CANCELLED";
      case WireCode::DeadlineExceeded:
        return "DEADLINE_EXCEEDED";
      case WireCode::ResourceExhausted:
        return "RESOURCE_EXHAUSTED";
      case WireCode::Internal:
        return "INTERNAL";
      case WireCode::Unimplemented:
        return "UNIMPLEMENTED";
    }
    return "UNKNOWN";
}

WireCode
wireCodeFor(const Status &status)
{
    switch (status.code()) {
      case StatusCode::Ok:
        return WireCode::Ok;
      case StatusCode::IoError:
        return WireCode::IoError;
      case StatusCode::CorruptData:
        return WireCode::CorruptData;
      case StatusCode::Busy:
        return WireCode::Busy;
      case StatusCode::Cancelled:
        return WireCode::Cancelled;
      case StatusCode::DeadlineExceeded:
        return WireCode::DeadlineExceeded;
      case StatusCode::InvalidArgument:
        return WireCode::InvalidArgument;
    }
    return WireCode::Internal;
}

Status
statusFromWire(WireCode code, const std::string &message)
{
    switch (code) {
      case WireCode::Ok:
        return Status();
      case WireCode::InvalidArgument:
        return Status::invalidArgument(message);
      case WireCode::IoError:
        return Status::ioError(message);
      case WireCode::CorruptData:
        return Status::corruptData(message);
      case WireCode::Busy:
      case WireCode::ResourceExhausted:
        return Status::busy(message);
      case WireCode::Cancelled:
        return Status::cancelled(message);
      case WireCode::DeadlineExceeded:
        return Status::deadlineExceeded(message);
      case WireCode::Internal:
      case WireCode::Unimplemented:
        return Status::ioError(message);
    }
    return Status::ioError(message);
}

// --- wire primitives -------------------------------------------------

bool
WireReader::take(void *out, size_t n)
{
    if (failed || size - pos < n) {
        failed = true;
        return false;
    }
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
}

bool
WireReader::u8(uint8_t *out)
{
    return take(out, 1);
}

bool
WireReader::u16(uint16_t *out)
{
    return take(out, 2);
}

bool
WireReader::u32(uint32_t *out)
{
    return take(out, 4);
}

bool
WireReader::u64(uint64_t *out)
{
    return take(out, 8);
}

bool
WireReader::str(std::string *out)
{
    uint32_t len = 0;
    if (!u32(&len))
        return false;
    if (size - pos < len) {
        failed = true;
        return false;
    }
    out->assign(reinterpret_cast<const char *>(data + pos), len);
    pos += len;
    return true;
}

void
WireWriter::u8(uint8_t v)
{
    buf.push_back(v);
}

void
WireWriter::u16(uint16_t v)
{
    buf.push_back(static_cast<uint8_t>(v));
    buf.push_back(static_cast<uint8_t>(v >> 8));
}

void
WireWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
WireWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
WireWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
}

// --- EINTR-safe fd I/O -----------------------------------------------

namespace {

/**
 * Park until `fd` is ready for `events`, restarting on EINTR without
 * double-counting the wait budget (a signal storm extends the wait, it
 * never shortens it into a spurious timeout-failure). Returns false
 * only on a genuine timeout or poll error.
 */
bool
pollReady(int fd, short events, int timeout_ms)
{
    for (;;) {
        struct pollfd pfd = {fd, events, 0};
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0)
            return true;
        if (rc == 0)
            return false;   // timeout
        if (errno == EINTR)
            continue;
        return false;
    }
}

} // namespace

Status
writeAllFd(int fd, const uint8_t *bytes, size_t len,
           int poll_timeout_ms)
{
    size_t off = 0;
    while (off < len) {
        const ssize_t n =
            ::send(fd, bytes + off, len - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!pollReady(fd, POLLOUT, poll_timeout_ms))
                return Status::ioError(
                    "send(): peer not writable within the wait bound");
            continue;
        }
        if (n < 0 && errno == ENOTSOCK) {
            // Plain fd (pipe, regular file): fall back to write().
            const ssize_t w = ::write(fd, bytes + off, len - off);
            if (w > 0) {
                off += static_cast<size_t>(w);
                continue;
            }
            if (w < 0 && errno == EINTR)
                continue;
        }
        return Status::ioError(std::string("send(): ") +
                               std::strerror(errno));
    }
    return Status();
}

Status
readExactFd(int fd, uint8_t *out, size_t len, int poll_timeout_ms)
{
    size_t off = 0;
    while (off < len) {
        const ssize_t n = ::recv(fd, out + off, len - off, 0);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n == 0)
            return Status::ioError(
                "peer closed the connection mid-message");
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!pollReady(fd, POLLIN, poll_timeout_ms))
                return Status::ioError(
                    "recv(): no data within the wait bound");
            continue;
        }
        return Status::ioError(std::string("recv(): ") +
                               std::strerror(errno));
    }
    return Status();
}

// --- frames ----------------------------------------------------------

namespace {

uint32_t
payloadCrc(const std::vector<uint8_t> &payload)
{
    return static_cast<uint32_t>(
        fnv1a(payload.data(), payload.size()));
}

} // namespace

Status
encodeFrame(MessageType type, uint64_t request_id,
            const std::vector<uint8_t> &payload,
            std::vector<uint8_t> *out)
{
    if (payload.size() > kMaxFramePayload) {
        return Status::invalidArgument(
            "frame payload of " + std::to_string(payload.size()) +
            " bytes exceeds the " + std::to_string(kMaxFramePayload) +
            " byte bound");
    }
    WireWriter w;
    w.u32(kFrameMagic);
    w.u16(kProtocolVersion);
    w.u16(static_cast<uint16_t>(type));
    w.u64(request_id);
    w.u32(static_cast<uint32_t>(payload.size()));
    w.u32(payloadCrc(payload));
    *out = w.take();
    out->insert(out->end(), payload.begin(), payload.end());
    return Status();
}

Status
parseFrameHeader(const uint8_t *bytes, size_t len, FrameHeader *out)
{
    if (len < kFrameHeaderBytes)
        return Status::invalidArgument(
            "frame header truncated: " + std::to_string(len) + " of " +
            std::to_string(kFrameHeaderBytes) + " bytes");
    WireReader r(bytes, kFrameHeaderBytes);
    FrameHeader h;
    uint16_t type = 0;
    r.u32(&h.magic);
    r.u16(&h.version);
    r.u16(&type);
    r.u64(&h.requestId);
    r.u32(&h.payloadLen);
    r.u32(&h.payloadCrc);
    h.type = type;
    if (!r.ok())
        return Status::invalidArgument("frame header unreadable");
    if (h.magic != kFrameMagic)
        return Status::corruptData("bad frame magic");
    if (h.version != kProtocolVersion)
        return Status::invalidArgument(
            "unsupported bpnsp-serve protocol version " +
            std::to_string(h.version) + " (this side speaks " +
            std::to_string(kProtocolVersion) + ")");
    if (h.payloadLen > kMaxFramePayload)
        return Status::invalidArgument(
            "oversized frame: length prefix " +
            std::to_string(h.payloadLen) + " exceeds the " +
            std::to_string(kMaxFramePayload) + " byte bound");
    *out = h;
    return Status();
}

Status
verifyFramePayload(const FrameHeader &header, const uint8_t *payload)
{
    const uint32_t crc = static_cast<uint32_t>(
        fnv1a(payload, header.payloadLen));
    if (crc != header.payloadCrc)
        return Status::corruptData(
            "frame payload checksum mismatch (corrupted frame)");
    return Status();
}

// --- request payloads ------------------------------------------------

std::vector<uint8_t>
encodeRequestPayload(const ServeRequest &request)
{
    WireWriter w;
    switch (request.type) {
      case MessageType::Ping:
      case MessageType::Stats:    // carries nothing, like Ping
        break;
      case MessageType::Simulate:
        w.str(request.workload);
        w.u32(request.inputIdx);
        w.u64(request.instructions);
        w.str(request.predictor);
        w.u64(request.first);
        w.u64(request.count);
        w.u32(request.deadlineMs);
        break;
      case MessageType::BranchStats:
        w.str(request.workload);
        w.u32(request.inputIdx);
        w.u64(request.instructions);
        w.str(request.predictor);
        w.u64(request.sliceLength);
        w.u32(request.topK);
        w.u32(request.deadlineMs);
        break;
      case MessageType::Materialize:
        w.str(request.workload);
        w.u32(request.inputIdx);
        w.u64(request.instructions);
        w.u32(request.deadlineMs);
        break;
      default:
        break;
    }
    return w.take();
}

Status
decodeRequestPayload(MessageType type, const uint8_t *payload,
                     size_t len, ServeRequest *out)
{
    ServeRequest req;
    req.type = type;
    WireReader r(payload, len);
    switch (type) {
      case MessageType::Ping:
      case MessageType::Stats:
        break;
      case MessageType::Simulate:
        r.str(&req.workload);
        r.u32(&req.inputIdx);
        r.u64(&req.instructions);
        r.str(&req.predictor);
        r.u64(&req.first);
        r.u64(&req.count);
        r.u32(&req.deadlineMs);
        break;
      case MessageType::BranchStats:
        r.str(&req.workload);
        r.u32(&req.inputIdx);
        r.u64(&req.instructions);
        r.str(&req.predictor);
        r.u64(&req.sliceLength);
        r.u32(&req.topK);
        r.u32(&req.deadlineMs);
        break;
      case MessageType::Materialize:
        r.str(&req.workload);
        r.u32(&req.inputIdx);
        r.u64(&req.instructions);
        r.u32(&req.deadlineMs);
        break;
      default:
        return Status::invalidArgument(
            std::string("not a request type: ") +
            messageTypeName(type));
    }
    if (!r.ok() || r.remaining() != 0)
        return Status::corruptData(
            std::string("malformed ") + messageTypeName(type) +
            " request payload");
    *out = std::move(req);
    return Status();
}

// --- reply payloads --------------------------------------------------

std::vector<uint8_t>
encodeReplyPayload(const ServeReply &reply)
{
    WireWriter w;
    w.u16(static_cast<uint16_t>(reply.code));
    w.str(reply.message);
    w.u32(reply.retryAfterMs);
    switch (reply.type) {
      case MessageType::PingReply:
        w.str(reply.serverInfo);
        break;
      case MessageType::SimulateReply:
        w.u64(reply.delivered);
        w.u64(reply.condExecs);
        w.u64(reply.condMispreds);
        w.u64(reply.accuracyBits);
        break;
      case MessageType::BranchStatsReply:
        w.u64(reply.delivered);
        w.u64(reply.condExecs);
        w.u64(reply.condMispreds);
        w.u32(static_cast<uint32_t>(reply.branches.size()));
        for (const BranchRow &row : reply.branches) {
            w.u64(row.ip);
            w.u64(row.execs);
            w.u64(row.mispreds);
            w.u64(row.taken);
        }
        w.u32(static_cast<uint32_t>(reply.targetClasses.size()));
        for (const TargetClassStat &row : reply.targetClasses) {
            w.u8(row.cls);
            w.u64(row.execs);
            w.u64(row.targetMispreds);
        }
        break;
      case MessageType::MaterializeReply:
        w.str(reply.digest);
        w.u64(reply.records);
        w.str(reply.path);
        break;
      case MessageType::StatsReply:
        w.str(reply.statsJson);
        break;
      default:   // Error: the common prefix only
        break;
    }
    return w.take();
}

Status
decodeReplyPayload(MessageType type, const uint8_t *payload,
                   size_t len, ServeReply *out)
{
    ServeReply reply;
    reply.type = type;
    WireReader r(payload, len);
    uint16_t code = 0;
    r.u16(&code);
    r.str(&reply.message);
    r.u32(&reply.retryAfterMs);
    reply.code = static_cast<WireCode>(code);
    switch (type) {
      case MessageType::PingReply:
        r.str(&reply.serverInfo);
        break;
      case MessageType::SimulateReply:
        r.u64(&reply.delivered);
        r.u64(&reply.condExecs);
        r.u64(&reply.condMispreds);
        r.u64(&reply.accuracyBits);
        break;
      case MessageType::BranchStatsReply: {
        r.u64(&reply.delivered);
        r.u64(&reply.condExecs);
        r.u64(&reply.condMispreds);
        uint32_t rows = 0;
        r.u32(&rows);
        // Bound by what the payload can actually hold, so a corrupt
        // count cannot drive allocation.
        if (r.ok() && static_cast<uint64_t>(rows) * 32 > r.remaining())
            return Status::corruptData(
                "branch-stats reply row count exceeds payload");
        for (uint32_t i = 0; i < rows && r.ok(); ++i) {
            BranchRow row;
            r.u64(&row.ip);
            r.u64(&row.execs);
            r.u64(&row.mispreds);
            r.u64(&row.taken);
            reply.branches.push_back(row);
        }
        uint32_t classes = 0;
        r.u32(&classes);
        if (r.ok() && static_cast<uint64_t>(classes) * 17 > r.remaining())
            return Status::corruptData(
                "branch-stats reply target-class count exceeds payload");
        for (uint32_t i = 0; i < classes && r.ok(); ++i) {
            TargetClassStat row;
            r.u8(&row.cls);
            r.u64(&row.execs);
            r.u64(&row.targetMispreds);
            reply.targetClasses.push_back(row);
        }
        break;
      }
      case MessageType::MaterializeReply:
        r.str(&reply.digest);
        r.u64(&reply.records);
        r.str(&reply.path);
        break;
      case MessageType::StatsReply:
        r.str(&reply.statsJson);
        break;
      case MessageType::Error:
        break;
      default:
        return Status::invalidArgument(
            std::string("not a reply type: ") +
            messageTypeName(type));
    }
    if (!r.ok() || r.remaining() != 0)
        return Status::corruptData(
            std::string("malformed ") + messageTypeName(type) +
            " payload");
    *out = std::move(reply);
    return Status();
}

} // namespace bpnsp::serve
