/**
 * @file
 * The on-disk trace store format: constants, primitive codecs, and the
 * per-chunk record encoder/decoder.
 *
 * A store file is a sequence of framed chunks, each holding a batch of
 * TraceRecords encoded with per-field varint + delta compression,
 * followed by a footer index (one entry per chunk) and a fixed-size
 * trailer at EOF that locates the footer. The trailer-at-end layout
 * lets the writer stream chunks without seeking back, and lets the
 * reader find the index in O(1) from the file size alone.
 *
 * Layout:
 *
 *   [FileHeader]                       magic + version, sniffable
 *   [ChunkHeader][payload] ...         framed, checksummed chunks
 *   [FooterEntry x numChunks]          chunk offsets + record counts
 *   [Trailer]                          locates & checksums the footer
 *
 * Every field of every record round-trips exactly; nothing is dropped
 * based on instruction class, so decode(encode(r)) == r always holds.
 */

#ifndef BPNSP_TRACESTORE_FORMAT_HPP
#define BPNSP_TRACESTORE_FORMAT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "util/hash.hpp"   // checksum64, the format's only checksum
#include "util/status.hpp"

namespace bpnsp {

/** First bytes of every trace store file. */
inline constexpr char kStoreMagic[8] = {'B', 'P', 'N', 'S', 'P',
                                        'T', 'S', '1'};

/** Last-but-checksum bytes of every trace store file. */
inline constexpr char kTrailerMagic[8] = {'B', 'P', 'T', 'S',
                                          'E', 'N', 'D', '1'};

/**
 * Format version. Bump on any incompatible layout or encoding change;
 * it participates in the cache key, so a bump turns every cached trace
 * into a miss that is regenerated rather than risking a misdecode. A
 * reader accepts exactly this version.
 *
 * Version history:
 *  - v1: original codec; instruction classes up to Halt; byte-wise
 *    FNV-1a chunk and footer checksums.
 *  - v2: adds the indirect-control classes (JumpInd, CallInd).
 *  - v3: chunk and footer checksums become checksum64, the
 *    word-at-a-time hash in util/hash.hpp. v1 and v2 files are no
 *    longer read.
 */
inline constexpr uint32_t kStoreVersion = 3;

/** Default records per chunk (the unit of seek and verification). */
inline constexpr uint32_t kDefaultRecordsPerChunk = 1u << 16;

/** Fixed-size file header. */
struct StoreFileHeader
{
    char magic[8];
    uint32_t version;
    uint32_t reserved;
};
static_assert(sizeof(StoreFileHeader) == 16, "unexpected header size");

/** Frame in front of each chunk payload. */
struct StoreChunkHeader
{
    uint32_t payloadBytes;   ///< encoded payload size after this header
    uint32_t recordCount;    ///< records encoded in the payload
    uint64_t checksum;       ///< checksum64 over the payload bytes
};
static_assert(sizeof(StoreChunkHeader) == 16, "unexpected chunk header");

/** One footer index entry per chunk. */
struct StoreFooterEntry
{
    uint64_t offset;         ///< file offset of the StoreChunkHeader
    uint32_t payloadBytes;   ///< must match the chunk header
    uint32_t recordCount;    ///< must match the chunk header
};
static_assert(sizeof(StoreFooterEntry) == 16, "unexpected footer entry");

/** Fixed-size trailer at EOF. */
struct StoreTrailer
{
    uint64_t footerOffset;    ///< file offset of the first footer entry
    uint64_t numChunks;
    uint64_t totalRecords;
    uint64_t footerChecksum;  ///< checksum64 over the footer entries
    uint32_t version;         ///< == header version
    char magic[8];
    uint32_t reserved;
};
static_assert(sizeof(StoreTrailer) == 48, "unexpected trailer size");

/** Append an LEB128 varint. */
void putVarint(std::vector<uint8_t> &out, uint64_t value);

/** Zigzag-map a signed delta so small magnitudes encode small. */
inline uint64_t
zigzag(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1) ^
           static_cast<uint64_t>(value >> 63);
}

/** Inverse of zigzag(). */
inline int64_t
unzigzag(uint64_t value)
{
    return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

/** Longest valid varint: ten 7-bit groups cover 64 bits. */
inline constexpr size_t kMaxVarintBytes = 10;

/**
 * Longest encoded record: the fixed 6-byte prefix plus five varints
 * of at most kMaxVarintBytes each.
 */
inline constexpr size_t kMaxRecordBytes = 6 + 5 * kMaxVarintBytes;

/**
 * Bounds-checked varint read: advances *pos past the varint and
 * returns true, or returns false (leaving *pos unspecified) if the
 * varint runs past `len` or exceeds 64 bits.
 */
bool getVarint(const uint8_t *data, size_t len, size_t *pos,
               uint64_t *value);

/**
 * Encode a batch of records into `out` (appended). The encoding is
 * stateful within the batch only: IPs and memory addresses are
 * delta-encoded against the previous record, targets and fallthroughs
 * against the record's own IP, so any chunk decodes standalone.
 */
void encodeChunk(const TraceRecord *records, size_t count,
                 std::vector<uint8_t> &out);

/**
 * Incremental decoder over one chunk payload of `count` records, so a
 * caller can decode a chunk in blocks of its choosing.
 *
 * A record that starts at least kMaxRecordBytes before the end of the
 * payload is decoded with one bounds check for the whole record (a
 * one-byte varint costs one test); only records in the last
 * kMaxRecordBytes go through the per-byte checked getVarint. Both
 * paths reject the same malformed input with the same diagnostics,
 * and neither reads a byte at or past the payload's end.
 */
class ChunkDecoder
{
  public:
    ChunkDecoder(const uint8_t *payload, size_t payload_bytes,
                 size_t count)
        : data(payload), len(payload_bytes), left(count)
    {
    }

    /**
     * Decode the next min(max, records not yet decoded) records into
     * out[0..); *got is the number of whole records written. On
     * malformed input (truncated or overlong varint, invalid
     * instruction class, writtenValue wider than 32 bits, or payload
     * bytes left after the chunk's last record) returns CorruptData
     * with a diagnostic; the decoder must not be used after an error.
     */
    Status next(TraceRecord *out, size_t max, size_t *got);

  private:
    const uint8_t *data;
    size_t len;
    size_t left;
    size_t pos = 0;
    uint64_t prevIp = 0;
    uint64_t prevMem = 0;
};

/**
 * Decode all `count` records of a chunk payload into `out` (appended)
 * with a ChunkDecoder. On malformed input (truncated varint, invalid
 * instruction class, trailing bytes) returns CorruptData with a
 * diagnostic; never crashes.
 */
Status decodeChunk(const uint8_t *data, size_t len, size_t count,
                   std::vector<TraceRecord> &out);

/**
 * Order-sensitive digest over every field of every observed record.
 * Used to prove that a cached replay is bit-identical to the live
 * execution it was captured from.
 */
class DigestSink : public TraceSink
{
  public:
    void onRecord(const TraceRecord &rec) override;

    uint64_t digest() const { return hash; }
    uint64_t count() const { return seen; }

  private:
    uint64_t hash = kFnv1aBasis;
    uint64_t seen = 0;
};

} // namespace bpnsp

#endif // BPNSP_TRACESTORE_FORMAT_HPP
