#include "tracestore/store.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "util/cancel.hpp"
#include "util/fsutil.hpp"
#include "util/logging.hpp"

namespace bpnsp {

// --- writer ----------------------------------------------------------

TraceStoreWriter::TraceStoreWriter(const std::string &path,
                                   uint32_t records_per_chunk)
    : file(std::fopen(path.c_str(), "wb")), filePath(path),
      chunkCapacity(records_per_chunk)
{
    BPNSP_ASSERT(chunkCapacity > 0);
    if (file == nullptr) {
        st = Status::ioError("cannot open trace store for writing: " +
                             path + ": " + std::strerror(errno));
        return;
    }
    StoreFileHeader hdr{};
    std::memcpy(hdr.magic, kStoreMagic, sizeof(kStoreMagic));
    hdr.version = kStoreVersion;
    writeBytes(&hdr, sizeof(hdr));
    pending.reserve(chunkCapacity);
}

TraceStoreWriter::~TraceStoreWriter()
{
    onEnd();
}

/**
 * Write `len` bytes, resuming partial writes (the EINTR/short-write
 * recovery loop). The faultsim failpoints inject each failure class
 * documented in faultsim.hpp; on unrecoverable failure the writer
 * latches into the failed state and drops everything thereafter.
 */
bool
TraceStoreWriter::writeBytes(const void *data, size_t len)
{
    static obs::Counter &bytesWritten =
        obs::counter("tracestore.store.bytes_written");
    static obs::Counter &writeRetries =
        obs::counter("tracestore.store.write_retries");
    static obs::Counter &writeFailures =
        obs::counter("tracestore.store.write_failures");

    if (!st.ok())
        return false;
    if (len == 0)
        return true;   // empty footer: vector::data() may be null

    if (faultsim::evaluate("tracestore.write.enospc")) {
        writeFailures.inc();
        st = Status::ioError(
            "injected ENOSPC (no space left on device) writing " +
            filePath);
        return false;
    }
    if (faultsim::evaluate("tracestore.write.crash")) {
        // Torn write: a deterministic prefix reaches the disk, then
        // the "process dies". The torn file is left behind on purpose.
        const size_t torn =
            len > 1
                ? faultsim::payloadDraw("tracestore.write.crash") % len
                : 0;
        if (torn > 0)
            (void)std::fwrite(data, 1, torn, file);
        std::fflush(file);
        didCrash = true;
        writeFailures.inc();
        st = Status::cancelled("injected crash after " +
                               std::to_string(torn) + " of " +
                               std::to_string(len) + " bytes to " +
                               filePath);
        return false;
    }

    const auto *bytes = static_cast<const uint8_t *>(data);
    size_t written = 0;
    bool injectShort = faultsim::evaluate("tracestore.write.short");
    bool injectEintr = faultsim::evaluate("tracestore.write.eintr");
    while (written < len) {
        size_t want = len - written;
        size_t n = 0;
        if (injectEintr) {
            // Interrupted before transferring anything; retry.
            injectEintr = false;
            writeRetries.inc();
            continue;
        }
        if (injectShort) {
            // The OS accepted only part of the buffer; resume.
            injectShort = false;
            want = (want + 1) / 2;
            n = std::fwrite(bytes + written, 1, want, file);
            writeRetries.inc();
        } else {
            n = std::fwrite(bytes + written, 1, want, file);
        }
        if (n == 0) {
            writeFailures.inc();
            st = Status::ioError("short write to trace store: " +
                                 filePath);
            return false;
        }
        written += n;
    }
    fileOffset += len;
    bytesWritten.add(len);
    return true;
}

void
TraceStoreWriter::onRecord(const TraceRecord &rec)
{
    BPNSP_ASSERT(!finished, "write after onEnd()");
    if (!st.ok())
        return;   // failed writers swallow the rest of the stream
    pending.push_back(rec);
    ++total;
    if (pending.size() >= chunkCapacity)
        flushChunk();
}

void
TraceStoreWriter::flushChunk()
{
    static obs::Counter &chunksEncoded =
        obs::counter("tracestore.store.chunks_encoded");
    if (pending.empty() || !st.ok())
        return;
    chunksEncoded.inc();
    encodeBuffer.clear();
    encodeChunk(pending.data(), pending.size(), encodeBuffer);

    StoreChunkHeader hdr{};
    hdr.payloadBytes = static_cast<uint32_t>(encodeBuffer.size());
    hdr.recordCount = static_cast<uint32_t>(pending.size());
    hdr.checksum = checksum64(encodeBuffer.data(), encodeBuffer.size());

    StoreFooterEntry entry{};
    entry.offset = fileOffset;
    entry.payloadBytes = hdr.payloadBytes;
    entry.recordCount = hdr.recordCount;

    if (writeBytes(&hdr, sizeof(hdr)) &&
        writeBytes(encodeBuffer.data(), encodeBuffer.size()))
        footer.push_back(entry);
    pending.clear();
}

void
TraceStoreWriter::onEnd()
{
    if (finished || file == nullptr)
        return;
    finished = true;
    flushChunk();

    if (st.ok()) {
        StoreTrailer trailer{};
        trailer.footerOffset = fileOffset;
        trailer.numChunks = footer.size();
        trailer.totalRecords = total;
        trailer.footerChecksum = checksum64(
            footer.data(), footer.size() * sizeof(StoreFooterEntry));
        trailer.version = kStoreVersion;
        std::memcpy(trailer.magic, kTrailerMagic,
                    sizeof(kTrailerMagic));

        if (writeBytes(footer.data(),
                       footer.size() * sizeof(StoreFooterEntry)) &&
            writeBytes(&trailer, sizeof(trailer))) {
            // Durability barrier: a published entry must survive a
            // crash right after the rename that publishes it.
            if (faultsim::evaluate("tracestore.write.fsync")) {
                st = Status::ioError("injected fsync failure on " +
                                     filePath);
            } else {
                st.update(syncStream(file, filePath));
            }
        }
    }
    if (std::fclose(file) != 0)
        st.update(Status::ioError("cannot close trace store: " +
                                  filePath));
    file = nullptr;
}

// --- reader ----------------------------------------------------------

std::unique_ptr<TraceStoreReader>
TraceStoreReader::open(const std::string &path, Status *status)
{
    auto fail = [status](Status why) {
        if (status != nullptr)
            *status = std::move(why);
        return nullptr;
    };
    auto corrupt = [&fail](const std::string &what) {
        return fail(Status::corruptData(what));
    };

    if (faultsim::evaluate("tracestore.read.eio"))
        return fail(Status::ioError("injected fault: cannot read trace "
                                    "store: " + path));
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return fail(Status::ioError("cannot open trace store: " + path +
                                    ": " + std::strerror(errno)));
    }

    struct stat stbuf{};
    if (::fstat(fd, &stbuf) != 0 || stbuf.st_size < 0) {
        ::close(fd);
        return fail(Status::ioError("cannot stat trace store: " + path));
    }
    const auto size = static_cast<size_t>(stbuf.st_size);
    if (size < sizeof(StoreFileHeader) + sizeof(StoreTrailer)) {
        ::close(fd);
        return corrupt("trace store too small to be valid "
                       "(truncated?): " + path);
    }

    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);   // the mapping keeps the file alive
    if (map == MAP_FAILED)
        return fail(Status::ioError("cannot mmap trace store: " + path));

    std::unique_ptr<TraceStoreReader> reader(new TraceStoreReader());
    reader->base = static_cast<const uint8_t *>(map);
    reader->mappedSize = size;
    reader->path = path;

    StoreFileHeader hdr{};
    std::memcpy(&hdr, reader->base, sizeof(hdr));
    if (std::memcmp(hdr.magic, kStoreMagic, sizeof(kStoreMagic)) != 0)
        return corrupt("bad trace store magic in: " + path);
    if (hdr.version != kStoreVersion) {
        return corrupt("unsupported trace store version " +
                       std::to_string(hdr.version) + " (reads only " +
                       std::to_string(kStoreVersion) + ") in: " + path);
    }

    StoreTrailer trailer{};
    std::memcpy(&trailer, reader->base + size - sizeof(trailer),
                sizeof(trailer));
    if (std::memcmp(trailer.magic, kTrailerMagic,
                    sizeof(kTrailerMagic)) != 0) {
        return corrupt("missing trace store trailer (file truncated or "
                       "not finalized): " + path);
    }
    if (trailer.version != hdr.version)
        return corrupt("trailer/header version mismatch in: " + path);

    const uint64_t footerBytes =
        trailer.numChunks * sizeof(StoreFooterEntry);
    if (trailer.footerOffset < sizeof(StoreFileHeader) ||
        trailer.footerOffset + footerBytes + sizeof(StoreTrailer) !=
            size) {
        return corrupt("trace store footer index out of bounds in: " +
                       path);
    }
    const uint8_t *footerBase = reader->base + trailer.footerOffset;
    if (checksum64(footerBase, footerBytes) != trailer.footerChecksum)
        return corrupt("trace store footer checksum mismatch in: " +
                       path);

    uint64_t firstRecord = 0;
    uint64_t prevEnd = sizeof(StoreFileHeader);
    reader->chunks.reserve(trailer.numChunks);
    for (uint64_t i = 0; i < trailer.numChunks; ++i) {
        StoreFooterEntry entry{};
        std::memcpy(&entry, footerBase + i * sizeof(entry),
                    sizeof(entry));
        const uint64_t end = entry.offset + sizeof(StoreChunkHeader) +
                             entry.payloadBytes;
        if (entry.offset != prevEnd || end > trailer.footerOffset ||
            entry.recordCount == 0) {
            return corrupt("trace store chunk " + std::to_string(i) +
                           " index entry is corrupt in: " + path);
        }
        reader->chunks.push_back(ChunkInfo{entry.offset,
                                           entry.payloadBytes,
                                           entry.recordCount,
                                           firstRecord});
        firstRecord += entry.recordCount;
        prevEnd = end;
    }
    if (firstRecord != trailer.totalRecords) {
        return corrupt("trace store record count disagrees with index "
                       "in: " + path);
    }
    reader->totalRecords = trailer.totalRecords;
    return reader;
}

TraceStoreReader::~TraceStoreReader()
{
    if (base != nullptr)
        ::munmap(const_cast<uint8_t *>(base), mappedSize);
}

uint64_t
TraceStoreReader::chunkFirstRecord(uint64_t chunk) const
{
    return chunks.at(chunk).firstRecord;
}

uint64_t
TraceStoreReader::chunkRecordCount(uint64_t chunk) const
{
    return chunks.at(chunk).recordCount;
}

namespace {

/** Per-chunk read, decode and retry telemetry, registered together. */
struct ChunkTelemetry
{
    obs::Counter &chunksDecoded =
        obs::counter("tracestore.store.chunks_decoded");
    obs::Counter &bytesRead = obs::counter("tracestore.store.bytes_read");
    obs::Histogram &decodeNs =
        obs::histogram("tracestore.store.chunk_decode_ns");
    obs::Counter &retries = obs::counter("tracestore.replay.chunk_retries");
    obs::Counter &retrySuccesses =
        obs::counter("tracestore.replay.chunk_retry_successes");
    /** Chunks that failed for good: retries exhausted, or decode. */
    obs::Counter &failures = obs::counter("tracestore.replay.chunk_failures");

    static ChunkTelemetry &
    get()
    {
        static ChunkTelemetry t;
        return t;
    }
};

/**
 * Run a per-chunk operation with retries and exponential backoff.
 * Counts every retry (and permanent failure) in the obs registry and
 * annotates the final diagnostic with the attempt count.
 */
template <typename Op>
Status
withChunkRetries(uint64_t index, Op &&op)
{
    ChunkTelemetry &t = ChunkTelemetry::get();
    Status st;
    for (unsigned attempt = 1; attempt <= kChunkReplayAttempts;
         ++attempt) {
        st = op();
        if (st.ok()) {
            if (attempt > 1)
                t.retrySuccesses.inc();
            return st;
        }
        if (attempt < kChunkReplayAttempts) {
            t.retries.inc();
            warn("chunk ", index, " failed (attempt ", attempt, " of ",
                 kChunkReplayAttempts, "): ", st.str(), "; retrying");
            std::this_thread::sleep_for(
                std::chrono::microseconds(50u << attempt));
        }
    }
    t.failures.inc();
    return Status::make(st.code(),
                        st.message() + " (after " +
                            std::to_string(kChunkReplayAttempts) +
                            " attempts)");
}

/**
 * When the bit-flip failpoint fires, copy the payload and flip one
 * deterministically chosen bit, exactly as decaying media or a bad
 * DIMM would hand us — the checksum below then rejects the chunk.
 */
const uint8_t *
maybeBitflip(const uint8_t *payload, uint32_t payloadBytes,
             std::vector<uint8_t> &scratch)
{
    if (payloadBytes == 0 ||
        !faultsim::evaluate("tracestore.read.bitflip"))
        return payload;
    const uint64_t draw = faultsim::payloadDraw("tracestore.read.bitflip");
    scratch.assign(payload, payload + payloadBytes);
    scratch[(draw >> 3) % payloadBytes] ^=
        static_cast<uint8_t>(1u << (draw & 7));
    return scratch.data();
}

/** CorruptData naming the damaged chunk and its file. */
Status
chunkCorrupt(uint64_t index, const std::string &path,
             const std::string &what)
{
    return Status::corruptData("chunk " + std::to_string(index) +
                               " of " + path + ": " + what);
}

using Clock = std::chrono::steady_clock;

/** Nanoseconds in a duration, for the decode-time histogram. */
uint64_t
toNs(Clock::duration d)
{
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    return static_cast<uint64_t>(ns < 0 ? 0 : ns);
}

} // namespace

Status
TraceStoreReader::checksumChunkAt(uint64_t index) const
{
    const ChunkInfo &info = chunks.at(index);
    StoreChunkHeader hdr{};
    std::memcpy(&hdr, base + info.offset, sizeof(hdr));
    if (hdr.payloadBytes != info.payloadBytes ||
        hdr.recordCount != info.recordCount)
        return chunkCorrupt(index, path,
                            "chunk header disagrees with footer index");
    std::vector<uint8_t> scratch;
    const uint8_t *payload =
        maybeBitflip(payloadOf(index), hdr.payloadBytes, scratch);
    if (checksum64(payload, hdr.payloadBytes) != hdr.checksum)
        return chunkCorrupt(index, path,
                            "payload checksum mismatch (corrupted frame)");
    return Status();
}

Status
TraceStoreReader::readChunk(uint64_t index) const
{
    ChunkTelemetry &t = ChunkTelemetry::get();
    t.chunksDecoded.inc();
    t.bytesRead.add(sizeof(StoreChunkHeader) +
                    chunks.at(index).payloadBytes);
    return withChunkRetries(index, [&] { return checksumChunkAt(index); });
}

const uint8_t *
TraceStoreReader::payloadOf(uint64_t index) const
{
    return base + chunks[index].offset + sizeof(StoreChunkHeader);
}

Status
TraceStoreReader::chunkViaCache(uint64_t index, DecodedChunk *out) const
{
    // The on-disk payload checksum guards the cache key: a chunk
    // rewritten under the same path (quarantine + regeneration) can
    // never serve a stale decode.
    const ChunkInfo &info = chunks.at(index);
    StoreChunkHeader hdr{};
    std::memcpy(&hdr, base + info.offset, sizeof(hdr));

    DecodedChunkCache &cache = DecodedChunkCache::instance();
    if (DecodedChunk cached = cache.lookup(path, index, hdr.checksum);
        cached != nullptr) {
        *out = std::move(cached);
        return Status();
    }
    const Clock::time_point start = Clock::now();
    if (Status st = readChunk(index); !st.ok())
        return st;
    // A chunk that passed its checksum decodes straight from the
    // mapping, once: a decode failure after a passing checksum is
    // deterministic, so retrying it would only repeat it.
    auto fresh = std::make_shared<std::vector<TraceRecord>>();
    const Status decoded = decodeChunk(payloadOf(index), info.payloadBytes,
                                       info.recordCount, *fresh);
    ChunkTelemetry &t = ChunkTelemetry::get();
    t.decodeNs.observe(toNs(Clock::now() - start));
    if (!decoded.ok()) {
        t.failures.inc();
        return chunkCorrupt(index, path, decoded.message());
    }
    *out = std::move(fresh);
    cache.insert(path, index, hdr.checksum, *out);
    return Status();
}

Status
TraceStoreReader::streamChunk(uint64_t index, uint64_t skip,
                              uint64_t take,
                              std::vector<TraceRecord> &block,
                              TraceSink &sink) const
{
    const Clock::time_point start = Clock::now();
    if (Status st = readChunk(index); !st.ok())
        return st;
    const ChunkInfo &info = chunks[index];
    ChunkDecoder decoder(payloadOf(index), info.payloadBytes,
                         info.recordCount);
    // The histogram counts checksum and decode time, never the sink's.
    Clock::duration decoding = Clock::now() - start;
    Status st;
    uint64_t wanted = skip + take;   // decode no further than the range
    while (wanted > 0) {
        const Clock::time_point blockStart = Clock::now();
        size_t got = 0;
        st = decoder.next(block.data(),
                          static_cast<size_t>(std::min<uint64_t>(
                              block.size(), wanted)),
                          &got);
        decoding += Clock::now() - blockStart;
        if (!st.ok())
            break;
        wanted -= got;
        const size_t from = static_cast<size_t>(std::min<uint64_t>(skip,
                                                                   got));
        skip -= from;
        for (size_t i = from; i < got; ++i)
            sink.onRecord(block[i]);
    }
    ChunkTelemetry &t = ChunkTelemetry::get();
    t.decodeNs.observe(toNs(decoding));
    if (!st.ok()) {
        t.failures.inc();
        return chunkCorrupt(index, path, st.message());
    }
    return Status();
}

Status
TraceStoreReader::verify() const
{
    static obs::Histogram &verifyNs =
        obs::histogram("tracestore.store.verify_ns");
    obs::ScopedTimer timer(verifyNs);

    CancelToken *cancel = currentCancelToken();
    Status st;
    for (uint64_t c = 0; c < chunks.size(); ++c) {
        st = cancel->check();
        if (!st.ok())
            return st;
        st = withChunkRetries(c,
                              [&] { return checksumChunkAt(c); });
        if (!st.ok())
            return st;
    }
    return st;
}

Status
TraceStoreReader::replay(TraceSink &sink, uint64_t limit) const
{
    const uint64_t want =
        (limit == 0 || limit > totalRecords) ? totalRecords : limit;
    if (want > 0) {
        const Status st = replayRange(0, want, sink);
        if (!st.ok())
            return st;
    }
    sink.onEnd();
    return Status();
}

Status
TraceStoreReader::replayRange(uint64_t first, uint64_t n,
                              TraceSink &sink) const
{
    if (first + n < first || first + n > totalRecords) {
        return Status::invalidArgument(
            "replay range [" + std::to_string(first) + ", " +
            std::to_string(first) + " + " + std::to_string(n) +
            ") past end of store (" + std::to_string(totalRecords) +
            " records) in: " + path);
    }
    if (n == 0)
        return Status();
    // Locate the chunk containing `first` (the index is sorted).
    uint64_t lo = 0;
    uint64_t hi = chunks.size();
    while (lo + 1 < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (chunks[mid].firstRecord <= first)
            lo = mid;
        else
            hi = mid;
    }

    // Cancellation granularity is one chunk: fine enough that a
    // deadline or interrupt never waits on more than one decode, and
    // cheap enough (one relaxed load between decodes) to never matter.
    CancelToken *cancel = currentCancelToken();
    const bool viaCache = DecodedChunkCache::instance().enabled();
    std::vector<TraceRecord> block;   // the streamed path's one block
    uint64_t remaining = n;
    uint64_t cursor = first;
    for (uint64_t c = lo; c < chunks.size() && remaining > 0; ++c) {
        Status st = cancel->check();
        if (!st.ok())
            return st;
        const uint64_t skip = cursor - chunks[c].firstRecord;
        const uint64_t take =
            std::min<uint64_t>(chunks[c].recordCount - skip, remaining);
        if (viaCache) {
            DecodedChunk shared;
            st = chunkViaCache(c, &shared);
            if (!st.ok())
                return st;
            for (uint64_t i = skip; i < skip + take; ++i)
                sink.onRecord((*shared)[i]);
        } else {
            if (block.empty())
                block.resize(kReplayBlockRecords);
            st = streamChunk(c, skip, take, block, sink);
            if (!st.ok())
                return st;
        }
        cursor += take;
        remaining -= take;
    }
    if (remaining != 0) {
        return Status::corruptData(
            "store index inconsistent with data: " +
            std::to_string(remaining) + " of " + std::to_string(n) +
            " records unreachable in: " + path);
    }
    return Status();
}

} // namespace bpnsp
