/**
 * @file
 * In-memory LRU cache of *decoded* trace store chunks, layered above
 * the on-disk content-addressed cache.
 *
 * The on-disk cache removes VM execution from the replay path; what
 * remains is the per-chunk varint/delta decode, which dominates warm
 * replay time. A long-lived process that replays the same traces over
 * and over — the serving daemon answering many small predictability
 * queries against a shared corpus — pays that decode once per chunk
 * and then streams records straight out of memory.
 *
 * Entries are keyed by (store path, chunk index) and guarded by the
 * chunk's on-disk payload checksum: a regenerated or repaired store
 * file whose chunk content changed can never serve a stale decode.
 * Only *successful* decodes are inserted, so corruption is re-detected
 * (and re-counted) on every touch until the entry heals.
 *
 * The cache is process-wide and disabled by default (capacity 0).
 * Long-lived consumers opt in with setCapacityBytes() (the daemon's
 * --chunk-cache-mb flag). Eviction is strict LRU by
 * decoded byte size. Counters: tracestore.chunk_cache.{hits,misses,
 * evictions, insert_bytes}; gauge tracestore.chunk_cache.bytes.
 */

#ifndef BPNSP_TRACESTORE_CHUNK_CACHE_HPP
#define BPNSP_TRACESTORE_CHUNK_CACHE_HPP

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.hpp"

namespace bpnsp {

/** Shared, immutable decoded chunk (safe to stream from any thread). */
using DecodedChunk = std::shared_ptr<const std::vector<TraceRecord>>;

/** Process-wide LRU over decoded chunks. All methods thread-safe. */
class DecodedChunkCache
{
  public:
    static DecodedChunkCache &instance();

    /** Set the capacity in bytes (0 disables and clears). */
    void setCapacityBytes(size_t bytes);

    size_t capacityBytes() const;

    /** True when a non-zero capacity is configured. */
    bool enabled() const;

    /**
     * The cached decode of (path, chunk), or nullptr. A hit whose
     * stored checksum differs from `checksum` is treated as a miss and
     * dropped — the file changed under the same name.
     */
    DecodedChunk lookup(const std::string &path, uint64_t chunk,
                        uint64_t checksum);

    /**
     * Insert a freshly decoded chunk, evicting LRU entries beyond
     * capacity. Oversized chunks (larger than the whole capacity) are
     * simply not cached. No-op while disabled.
     */
    void insert(const std::string &path, uint64_t chunk,
                uint64_t checksum, DecodedChunk records);

    /** Drop every entry (capacity unchanged). */
    void clear();

    /** @name Introspection (tests, reports) */
    /// @{
    size_t entries() const;
    size_t sizeBytes() const;
    /// @}

  private:
    DecodedChunkCache() = default;

    struct Key
    {
        std::string path;
        uint64_t chunk;

        bool
        operator==(const Key &o) const
        {
            return chunk == o.chunk && path == o.path;
        }
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            return std::hash<std::string>()(k.path) ^
                   (std::hash<uint64_t>()(k.chunk) * 0x9e3779b97f4a7c15ull);
        }
    };

    struct Entry
    {
        Key key;
        uint64_t checksum;
        size_t bytes;
        DecodedChunk records;
    };

    void evictToFit();         ///< drop LRU tail past capacity (mu held)

    mutable std::mutex mu;
    size_t capacity = 0;
    size_t used = 0;
    std::list<Entry> lru;      ///< front = most recent
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
};

} // namespace bpnsp

#endif // BPNSP_TRACESTORE_CHUNK_CACHE_HPP
