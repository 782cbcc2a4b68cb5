/**
 * @file
 * `bpnsp-serve-v3`: the wire protocol of the prediction-serving
 * daemon.
 *
 * Every message travels in one length-prefixed, checksummed, versioned
 * frame (little-endian):
 *
 *   offset size field
 *   0      4    magic       0x31565342 ("BSV1")
 *   4      2    version     kProtocolVersion (3)
 *   6      2    type        MessageType
 *   8      8    request id  chosen by the client, echoed verbatim in
 *                           the matching reply
 *   16     4    payload len N, <= kMaxFramePayload
 *   20     4    payload crc FNV-1a 64 of the payload, truncated to 32
 *   24     N    payload     message-specific fields (WireWriter)
 *
 * Versioning rule: the magic+version pair is checked before anything
 * else — a version this side does not speak (v1 and v2 included) is
 * refused with a clean InvalidArgument, never misparsed. Each message
 * type has exactly one payload layout: decoders read every field and
 * refuse a payload with bytes left over. Any layout change bumps
 * kProtocolVersion.
 *
 * Every reply payload starts with the same prefix — u16 code, str
 * message, u32 retryAfterMs — followed by its type's own fields
 * (encodeReplyPayload lists them per type).
 *
 * Payload primitives are fixed-width little-endian integers and
 * u32-length-prefixed strings; every read is bounds-checked and
 * returns a Status instead of crashing, because the bytes come from
 * the network. There is deliberately no varint here: frames are small,
 * and fixed widths keep the decoder trivially auditable.
 *
 * Error handling: replies carry a WireCode (a superset of
 * StatusCode with ResourceExhausted for admission rejection). A
 * protocol-level failure — bad magic, unsupported version, oversized
 * length prefix, checksum mismatch, malformed payload — gets a
 * best-effort Error reply and the connection is closed.
 */

#ifndef BPNSP_SERVE_PROTOCOL_HPP
#define BPNSP_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace bpnsp::serve {

/** Protocol identity (see the frame layout above). */
inline constexpr uint32_t kFrameMagic = 0x31565342u;   // "BSV1"
inline constexpr uint16_t kProtocolVersion = 3;

/** Hard payload bound: larger prefixes are refused before any read. */
inline constexpr uint32_t kMaxFramePayload = 16u * 1024 * 1024;

/** Fixed-size frame header. */
struct FrameHeader
{
    uint32_t magic = kFrameMagic;
    uint16_t version = kProtocolVersion;
    uint16_t type = 0;
    uint64_t requestId = 0;
    uint32_t payloadLen = 0;
    uint32_t payloadCrc = 0;
};

inline constexpr size_t kFrameHeaderBytes = 24;

/** Message types (requests odd concepts, replies paired). */
enum class MessageType : uint16_t
{
    Invalid = 0,
    Ping = 1,
    PingReply = 2,
    Simulate = 3,
    SimulateReply = 4,
    BranchStats = 5,
    BranchStatsReply = 6,
    // 7/8 (an H2P screening request and its reply) and 16/17 (Cancel
    // and its reply) are retired: such a frame is an unknown type.
    Materialize = 9,
    MaterializeReply = 10,
    Error = 11,   ///< generic failure reply (any request type)
    Stats = 12,   ///< live metric-registry snapshot (io-thread fast path)
    StatsReply = 13,
};

/** Stable name of a message type ("simulate", ...). */
const char *messageTypeName(MessageType type);

/** True for the request types a server accepts. */
bool isRequestType(MessageType type);

/** Application-level result codes carried by replies. */
enum class WireCode : uint16_t
{
    Ok = 0,
    InvalidArgument = 1,
    IoError = 2,
    CorruptData = 3,
    Busy = 4,
    Cancelled = 5,
    DeadlineExceeded = 6,
    ResourceExhausted = 7,   ///< bounded-queue admission rejection
    Internal = 8,
    Unimplemented = 9,
};

/** Stable name of a wire code ("RESOURCE_EXHAUSTED", ...). */
const char *wireCodeName(WireCode code);

/** Map the library Status taxonomy onto the wire. */
WireCode wireCodeFor(const Status &status);

/** Map a wire code back into the Status taxonomy (for clients). */
Status statusFromWire(WireCode code, const std::string &message);

/**
 * One request, any type: a superset of the per-type fields. Unused
 * fields stay at their defaults and are not serialized for types that
 * do not carry them.
 */
struct ServeRequest
{
    MessageType type = MessageType::Invalid;
    std::string workload;      ///< workload name (all request types)
    uint32_t inputIdx = 0;     ///< input index within the workload
    uint64_t instructions = 0; ///< trace length (cache-key identity)
    std::string predictor;     ///< Simulate / BranchStats
    uint64_t first = 0;        ///< Simulate: slice start record
    uint64_t count = 0;        ///< Simulate: slice length (0 = to end)
    uint64_t sliceLength = 0;  ///< BranchStats: carried on the wire, not read
    uint32_t topK = 0;         ///< BranchStats: rows returned (0 = all)
    uint32_t deadlineMs = 0;   ///< per-request deadline (0 = none)
};

/** One per-static-branch row of a BranchStats reply. */
struct BranchRow
{
    uint64_t ip = 0;
    uint64_t execs = 0;
    uint64_t mispreds = 0;
    uint64_t taken = 0;
};

/** Per-class frontend target statistics (BranchStatsReply). */
struct TargetClassStat
{
    uint8_t cls = 0;             ///< InstrClass value (trace/record.hpp)
    uint64_t execs = 0;          ///< transfers of this class executed
    uint64_t targetMispreds = 0; ///< resolved to an unpredicted target
};

/**
 * One reply, any type: code/message always; the rest by type. Numeric
 * results that are doubles travel as IEEE-754 bit patterns so
 * "bit-identical to a direct in-process run" is literal.
 */
struct ServeReply
{
    MessageType type = MessageType::Invalid;
    WireCode code = WireCode::Ok;
    std::string message;

    /**
     * Retry-after hint in milliseconds. Non-zero only on the admission
     * queue's RESOURCE_EXHAUSTED refusals (queue full) and
     * DEADLINE_EXCEEDED expiries (deadline passed while queued), where
     * it estimates when the queue could take the request again. A hint,
     * never a guarantee.
     */
    uint32_t retryAfterMs = 0;

    // SimulateReply
    uint64_t delivered = 0;
    uint64_t condExecs = 0;
    uint64_t condMispreds = 0;
    uint64_t accuracyBits = 0;   ///< double accuracy, bit-cast

    // BranchStatsReply
    std::vector<BranchRow> branches;
    std::vector<TargetClassStat> targetClasses; ///< stable class order

    // MaterializeReply
    std::string digest;
    uint64_t records = 0;
    std::string path;

    // PingReply
    std::string serverInfo;

    // StatsReply: a bpnsp-stats-v1 JSON document (obs/report.hpp)
    std::string statsJson;
};

/** Bit-cast helpers for the double-as-u64 reply fields. */
inline uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

inline double
bitsDouble(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** @name EINTR-safe blocking fd I/O
 *
 * Shared by the client and the server's reply path, so there is
 * exactly one partial-read/partial-write loop to audit. Signals can
 * land at any time (SIGTERM drains, profilers, test SIGUSR1); both
 * helpers restart on EINTR — including EINTR from the poll() they park in when a
 * non-blocking fd would block — and never drop or double-count bytes.
 */
/// @{

/**
 * Write all `len` bytes to `fd` (blocking or non-blocking; sends use
 * MSG_NOSIGNAL on sockets so a vanished peer is EPIPE, not SIGPIPE).
 * `poll_timeout_ms` bounds each individual wait for writability (-1 =
 * wait forever); a wait that times out fails with IoError, which for
 * the server means "wedged peer: give up on the connection".
 */
Status writeAllFd(int fd, const uint8_t *bytes, size_t len,
                  int poll_timeout_ms = -1);

/**
 * Read exactly `len` bytes from `fd`. EOF mid-read is an IoError
 * ("peer closed"); `poll_timeout_ms` bounds each individual wait for
 * readability (-1 = wait forever).
 */
Status readExactFd(int fd, uint8_t *out, size_t len,
                   int poll_timeout_ms = -1);
/// @}

/** @name Frame assembly / parsing */
/// @{

/**
 * Serialize a complete frame (header + payload) for the wire.
 * fatal()-free: an oversized payload is InvalidArgument.
 */
Status encodeFrame(MessageType type, uint64_t request_id,
                   const std::vector<uint8_t> &payload,
                   std::vector<uint8_t> *out);

/**
 * Parse and validate a frame header from exactly kFrameHeaderBytes
 * bytes: magic, version, and the payload-length bound are checked
 * here, *before* the caller buffers payloadLen bytes — an adversarial
 * length prefix can never drive allocation.
 */
Status parseFrameHeader(const uint8_t *bytes, size_t len,
                        FrameHeader *out);

/** Verify the payload checksum against the header. */
Status verifyFramePayload(const FrameHeader &header,
                          const uint8_t *payload);
/// @}

/** @name Message payload codecs */
/// @{
std::vector<uint8_t> encodeRequestPayload(const ServeRequest &request);

/**
 * Decode a request payload of the given type (bounds-checked;
 * trailing bytes are CorruptData).
 */
Status decodeRequestPayload(MessageType type, const uint8_t *payload,
                            size_t len, ServeRequest *out);

std::vector<uint8_t> encodeReplyPayload(const ServeReply &reply);

/**
 * Decode a reply payload of the given type (bounds-checked; trailing
 * bytes are CorruptData).
 */
Status decodeReplyPayload(MessageType type, const uint8_t *payload,
                          size_t len, ServeReply *out);
/// @}

/**
 * Bounds-checked sequential reader over a payload. Every accessor
 * returns false once the payload is exhausted or malformed; the first
 * failure latches, so callers may batch reads and check once.
 */
class WireReader
{
  public:
    WireReader(const uint8_t *bytes, size_t len)
        : data(bytes), size(len)
    {
    }

    bool u8(uint8_t *out);
    bool u16(uint16_t *out);
    bool u32(uint32_t *out);
    bool u64(uint64_t *out);
    bool str(std::string *out);   ///< u32 length + bytes

    bool ok() const { return !failed; }
    size_t remaining() const { return size - pos; }

  private:
    bool take(void *out, size_t n);

    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool failed = false;
};

/** Little-endian sequential writer (the encoder twin of WireReader). */
class WireWriter
{
  public:
    void u8(uint8_t v);
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void str(const std::string &s);

    std::vector<uint8_t> take() { return std::move(buf); }
    const std::vector<uint8_t> &bytes() const { return buf; }

  private:
    std::vector<uint8_t> buf;
};

} // namespace bpnsp::serve

#endif // BPNSP_SERVE_PROTOCOL_HPP
