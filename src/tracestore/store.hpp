/**
 * @file
 * Trace store writer and mmap-backed reader.
 *
 * The writer is a TraceSink, so any workload execution can be captured
 * transparently by adding it to the sink fan-out. The reader maps the
 * whole file read-only and decodes chunks on demand, which makes
 * replay zero-copy up to the decode and safe to run from several
 * threads at once (all replay methods are const and share no mutable
 * state). A chunk is checksummed before any of its records is
 * delivered; it is then decoded in kReplayBlockRecords blocks that
 * stream to the sink, or, with the DecodedChunkCache on, decoded
 * whole into the cache and streamed from there.
 *
 * Records are delta/varint-encoded in chunks (~4x smaller than
 * fixed-width records); the footer index gives O(1) seek to any record
 * range, and per-chunk checksums detect corruption.
 *
 * Robustness contract (see DESIGN.md "Robustness & fault injection"):
 *  - The writer never fatal()s on I/O failure. It degrades into a
 *    failed state (dropping further records), records why in status(),
 *    and leaves the caller to discard the torn file — the capture is
 *    just one sink of a fan-out, so the run itself continues.
 *  - Every filesystem touch is wrapped in a faultsim failpoint
 *    (tracestore.write.{short,eintr,enospc,crash,fsync},
 *    tracestore.read.bitflip), so torn writes, out-of-space, and
 *    bit rot are deterministically reproducible in tests.
 *  - Reader errors are Status values, never aborts: a chunk whose
 *    checksum fails is re-read with backoff (kChunkReplayAttempts),
 *    and verify() lets callers checksum a whole store *before*
 *    streaming any record into analysis sinks. Decode is not retried:
 *    after a passing checksum its failure is deterministic.
 */

#ifndef BPNSP_TRACESTORE_STORE_HPP
#define BPNSP_TRACESTORE_STORE_HPP

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "tracestore/chunk_cache.hpp"
#include "tracestore/format.hpp"
#include "trace/sink.hpp"
#include "util/status.hpp"

namespace bpnsp {

/**
 * Attempts per chunk before a checksum failure is considered
 * permanent: the first try plus retries with short exponential
 * backoff. Retries absorb transient faults (injected or environmental
 * bit flips on read); persistent on-disk corruption still fails, with
 * the attempt count in the diagnostic.
 */
inline constexpr unsigned kChunkReplayAttempts = 3;

/**
 * Records per block of the uncached replay path: 4096 x 48 B = 192 KiB
 * stays in L2 between decode and delivery, where a whole 65,536-record
 * chunk (3 MiB) would not.
 */
inline constexpr size_t kReplayBlockRecords = 4096;

/** Captures a record stream into a trace store file. */
class TraceStoreWriter : public TraceSink
{
  public:
    /**
     * Open (truncate) the file. Failure to open does not throw or
     * abort: the writer starts in the failed state (see status()) and
     * drops all records.
     */
    explicit TraceStoreWriter(
        const std::string &path,
        uint32_t records_per_chunk = kDefaultRecordsPerChunk);
    ~TraceStoreWriter() override;

    TraceStoreWriter(const TraceStoreWriter &) = delete;
    TraceStoreWriter &operator=(const TraceStoreWriter &) = delete;

    void onRecord(const TraceRecord &rec) override;

    /**
     * Flush the last chunk, write footer + trailer, fsync, and close.
     * Check status() afterwards: a writer that failed anywhere leaves
     * a torn file behind that no reader will accept.
     */
    void onEnd() override;

    /** Records accepted so far. */
    uint64_t count() const { return total; }

    /** Ok while every write (and the final fsync) has succeeded. */
    const Status &status() const { return st; }

    /**
     * True when an injected crash tore the file mid-write. The torn
     * file is deliberately left on disk (the "process died"), so
     * staging-file garbage collection paths can be exercised.
     */
    bool crashed() const { return didCrash; }

  private:
    std::FILE *file;
    std::string filePath;
    uint32_t chunkCapacity;
    std::vector<TraceRecord> pending;     ///< records of the open chunk
    std::vector<uint8_t> encodeBuffer;
    std::vector<StoreFooterEntry> footer;
    uint64_t total = 0;
    uint64_t fileOffset = 0;
    bool finished = false;
    bool didCrash = false;
    Status st;

    void flushChunk();
    bool writeBytes(const void *data, size_t len);
};

/** Replays a trace store file; all replay methods are thread-safe. */
class TraceStoreReader
{
  public:
    /**
     * Map and validate a store file. Returns nullptr and sets *status
     * on any problem — IoError for missing/unmappable files,
     * CorruptData for bad magic, version mismatch, truncation, or
     * index corruption. Never crashes on malformed input.
     */
    static std::unique_ptr<TraceStoreReader>
    open(const std::string &path, Status *status);

    ~TraceStoreReader();

    TraceStoreReader(const TraceStoreReader &) = delete;
    TraceStoreReader &operator=(const TraceStoreReader &) = delete;

    /** Total records in the store. */
    uint64_t count() const { return totalRecords; }

    /** Number of chunks (the granularity of seek and verification). */
    uint64_t numChunks() const { return chunks.size(); }

    /** Global index of the first record of a chunk. */
    uint64_t chunkFirstRecord(uint64_t chunk) const;

    /** Record count of a chunk. */
    uint64_t chunkRecordCount(uint64_t chunk) const;

    /**
     * Checksum every chunk without decoding or streaming anything.
     * Lets callers prove a store is wholly intact *before* wiring it
     * into analysis sinks, so a corrupt entry can be quarantined and
     * regenerated without ever contaminating downstream statistics.
     * Transient read faults are absorbed by the per-chunk retry.
     */
    Status verify() const;

    /**
     * Stream up to `limit` records (0 = all) into the sink and call
     * onEnd(). Returns CorruptData on a corrupt chunk (checksum
     * failure after retries, or a decode failure); the sink may have
     * received a prefix of the stream in that case.
     */
    Status replay(TraceSink &sink, uint64_t limit) const;

    /**
     * Stream records [first, first + n) into the sink WITHOUT calling
     * onEnd() — callers composing slices own stream termination. Seeks
     * directly to the containing chunk via the footer index. Each
     * chunk is checksummed (with retries) before any of its records is
     * delivered, so a chunk that stays corrupt delivers none. Without
     * the DecodedChunkCache it is then decoded kReplayBlockRecords at
     * a time into one reused block and each block is delivered,
     * decoding no further than record first + n - 1. A decode failure
     * after a passing checksum is CorruptData; blocks of that chunk
     * delivered before it stay delivered. A range past the end of the
     * store is InvalidArgument, not an abort.
     */
    Status replayRange(uint64_t first, uint64_t n,
                       TraceSink &sink) const;

  private:
    struct ChunkInfo
    {
        uint64_t offset;        ///< file offset of the chunk header
        uint32_t payloadBytes;
        uint32_t recordCount;
        uint64_t firstRecord;   ///< global index of its first record
    };

    TraceStoreReader() = default;

    /**
     * Checksum chunk `index` with up to kChunkReplayAttempts tries and
     * exponential backoff between them, counting retries in the obs
     * registry (tracestore.replay.chunk_retries) and the chunk as read
     * (tracestore.store.chunks_decoded, bytes_read).
     */
    Status readChunk(uint64_t index) const;

    /** First payload byte of chunk `index` in the mapping. */
    const uint8_t *payloadOf(uint64_t index) const;

    /**
     * Chunk `index` through the process-wide DecodedChunkCache: a hit
     * streams the shared in-memory decode, a miss checksums (with
     * retries), decodes once and publishes it for the next replay.
     * Only consulted when the cache is enabled.
     */
    Status chunkViaCache(uint64_t index, DecodedChunk *out) const;

    /**
     * The uncached path: checksum chunk `index` (with retries), then
     * decode its first `skip + take` records `block.size()` at a time
     * into `block` and deliver records [skip, skip + take) to the
     * sink. Decode runs once; its failure is permanent.
     */
    Status streamChunk(uint64_t index, uint64_t skip, uint64_t take,
                       std::vector<TraceRecord> &block,
                       TraceSink &sink) const;

    /** Checksum chunk `index` (bit-flip failpoint included). */
    Status checksumChunkAt(uint64_t index) const;

    const uint8_t *base = nullptr;   ///< mmap base (read-only)
    size_t mappedSize = 0;
    uint64_t totalRecords = 0;
    std::vector<ChunkInfo> chunks;
    std::string path;
};

} // namespace bpnsp

#endif // BPNSP_TRACESTORE_STORE_HPP
