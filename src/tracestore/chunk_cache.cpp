#include "tracestore/chunk_cache.hpp"

#include "obs/metrics.hpp"

namespace bpnsp {

namespace {

/** Decoded footprint of one cached chunk (records + bookkeeping). */
size_t
chunkBytes(const DecodedChunk &records)
{
    return records->size() * sizeof(TraceRecord) + sizeof(void *) * 8;
}

} // namespace

DecodedChunkCache &
DecodedChunkCache::instance()
{
    static DecodedChunkCache cache;
    return cache;
}

void
DecodedChunkCache::setCapacityBytes(size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu);
    capacity = bytes;
    evictToFit();
}

size_t
DecodedChunkCache::capacityBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return capacity;
}

bool
DecodedChunkCache::enabled() const
{
    return capacityBytes() > 0;
}

DecodedChunk
DecodedChunkCache::lookup(const std::string &path, uint64_t chunk,
                          uint64_t checksum)
{
    static obs::Counter &hits =
        obs::counter("tracestore.chunk_cache.hits");
    static obs::Counter &misses =
        obs::counter("tracestore.chunk_cache.misses");

    std::lock_guard<std::mutex> lock(mu);
    if (capacity == 0)
        return nullptr;
    const auto it = index.find(Key{path, chunk});
    if (it == index.end()) {
        misses.inc();
        return nullptr;
    }
    if (it->second->checksum != checksum) {
        // Same name, different bytes: the entry was regenerated or
        // repaired on disk. Drop the stale decode and miss.
        used -= it->second->bytes;
        lru.erase(it->second);
        index.erase(it);
        misses.inc();
        return nullptr;
    }
    // Move to the front (most recently used).
    lru.splice(lru.begin(), lru, it->second);
    hits.inc();
    return it->second->records;
}

void
DecodedChunkCache::insert(const std::string &path, uint64_t chunk,
                          uint64_t checksum, DecodedChunk records)
{
    static obs::Counter &insertBytes =
        obs::counter("tracestore.chunk_cache.insert_bytes");
    static obs::Gauge &bytesGauge =
        obs::gauge("tracestore.chunk_cache.bytes");

    if (records == nullptr)
        return;
    const size_t bytes = chunkBytes(records);
    std::lock_guard<std::mutex> lock(mu);
    if (capacity == 0 || bytes > capacity)
        return;
    const Key key{path, chunk};
    if (const auto it = index.find(key); it != index.end()) {
        used -= it->second->bytes;
        lru.erase(it->second);
        index.erase(it);
    }
    lru.push_front(Entry{key, checksum, bytes, std::move(records)});
    index.emplace(key, lru.begin());
    used += bytes;
    insertBytes.add(bytes);
    evictToFit();
    bytesGauge.set(static_cast<double>(used));
}

void
DecodedChunkCache::evictToFit()
{
    static obs::Counter &evictions =
        obs::counter("tracestore.chunk_cache.evictions");
    while (used > capacity && !lru.empty()) {
        const Entry &victim = lru.back();
        used -= victim.bytes;
        index.erase(victim.key);
        lru.pop_back();
        evictions.inc();
    }
}

void
DecodedChunkCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    lru.clear();
    index.clear();
    used = 0;
}

size_t
DecodedChunkCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu);
    return index.size();
}

size_t
DecodedChunkCache::sizeBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return used;
}

} // namespace bpnsp
