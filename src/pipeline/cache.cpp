#include "pipeline/cache.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

Cache::Cache(std::string cache_name, uint64_t size_bytes,
             unsigned associativity, unsigned line_bytes,
             unsigned hit_latency, Cache *next_level,
             unsigned memory_latency)
    : cacheName(std::move(cache_name)), assoc(associativity),
      lineShift(log2Floor(line_bytes)),
      numSets(size_bytes / line_bytes / associativity),
      latency(hit_latency), next(next_level), memLatency(memory_latency)
{
    BPNSP_ASSERT(isPowerOfTwo(line_bytes), "line size must be 2^n");
    BPNSP_ASSERT(lineShift >= 1, "line size must be >= 2: ", cacheName);
    BPNSP_ASSERT(numSets >= 1, "cache too small: ", cacheName);
    BPNSP_ASSERT(isPowerOfTwo(numSets), "sets must be 2^n: ", cacheName);
    BPNSP_ASSERT(next != nullptr || memLatency > 0,
                 "last level needs a memory latency: ", cacheName);
    tags.assign(numSets * assoc, kEmptyTag);
    ages.assign(numSets * assoc, 0);
}

size_t
Cache::setBase(uint64_t tag) const
{
    return static_cast<size_t>(tag & (numSets - 1)) * assoc;
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t tag = addr >> lineShift;
    const uint64_t *set = &tags[setBase(tag)];
    for (unsigned w = 0; w < assoc; ++w) {
        if (set[w] == tag)
            return true;
    }
    return false;
}

unsigned
Cache::access(uint64_t addr)
{
    const uint64_t tag = addr >> lineShift;
    const size_t base = setBase(tag);
    uint64_t *set = &tags[base];
    uint64_t *age = &ages[base];
    ++useClock;

    for (unsigned w = 0; w < assoc; ++w) {
        if (set[w] == tag) {
            age[w] = useClock;
            ++hitCount;
            return latency;
        }
    }

    ++missCount;
    // LRU victim: the oldest way. Empty ways keep age 0 and every use
    // stamps a clock >= 1, so the first empty way goes first.
    unsigned victim = 0;
    for (unsigned w = 1; w < assoc; ++w) {
        if (age[w] < age[victim])
            victim = w;
    }
    const unsigned below =
        next != nullptr ? next->access(addr) : memLatency;
    set[victim] = tag;
    age[victim] = useClock;
    return latency + below;
}

void
Cache::reset()
{
    std::fill(tags.begin(), tags.end(), kEmptyTag);
    std::fill(ages.begin(), ages.end(), 0);
    useClock = 0;
    hitCount = 0;
    missCount = 0;
}

CacheHierarchy::CacheHierarchy()
    : llc("llc", 2 * 1024 * 1024, 16, 64, 30, nullptr, 160),
      l2("l2", 256 * 1024, 8, 64, 10, &llc),
      l1i("l1i", 32 * 1024, 8, 64, 0, &l2),
      l1d("l1d", 32 * 1024, 8, 64, 4, &l2)
{
}

void
CacheHierarchy::reset()
{
    llc.reset();
    l2.reset();
    l1i.reset();
    l1d.reset();
}

} // namespace bpnsp
