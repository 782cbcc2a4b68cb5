/**
 * @file
 * Set-associative cache model with LRU replacement, composed into the
 * L1I/L1D/L2/LLC hierarchy of the Skylake-like core configuration.
 * Timing-only: the model returns access latencies and tracks hit/miss
 * counters; no data is stored.
 *
 * Layout: tags and LRU ages live in two separate line-aligned arrays,
 * so a hit scans one cache line of tags (an 8-way set is 64 B) and
 * writes one age. An empty way holds the tag kEmptyTag; real tags are
 * addr >> lineShift with lineShift >= 1, so they never collide with it.
 */

#ifndef BPNSP_PIPELINE_CACHE_HPP
#define BPNSP_PIPELINE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace bpnsp {

/** One level of a timing-only cache hierarchy. */
class Cache
{
  public:
    /**
     * @param cache_name reporting name
     * @param size_bytes total capacity
     * @param associativity ways per set
     * @param line_bytes cache line size
     * @param hit_latency cycles on a hit at this level
     * @param next lower level (nullptr = memory is next)
     * @param memory_latency cycles to memory when next == nullptr
     */
    Cache(std::string cache_name, uint64_t size_bytes,
          unsigned associativity, unsigned line_bytes,
          unsigned hit_latency, Cache *next_level,
          unsigned memory_latency = 0);

    /**
     * Access the line containing addr, filling on miss.
     * @return total latency in cycles including lower levels.
     */
    unsigned access(uint64_t addr);

    /** True if the line containing addr is resident (no side effects). */
    bool probe(uint64_t addr) const;

    uint64_t hits() const { return hitCount; }
    uint64_t misses() const { return missCount; }

    /** Miss ratio (0 when never accessed). */
    double
    missRatio() const
    {
        const uint64_t total = hitCount + missCount;
        return total ? static_cast<double>(missCount) / total : 0.0;
    }

    const std::string &name() const { return cacheName; }
    unsigned hitLatency() const { return latency; }

    /** Invalidate all lines and zero the counters. */
    void reset();

  private:
    /** Allocates on 64 B boundaries, so each set starts a line. */
    template <typename T>
    struct LineAllocator
    {
        using value_type = T;
        static constexpr std::align_val_t kAlign{64};

        LineAllocator() = default;
        template <typename U>
        LineAllocator(const LineAllocator<U> &) {}

        T *
        allocate(size_t n)
        {
            return static_cast<T *>(
                ::operator new(n * sizeof(T), kAlign));
        }
        void deallocate(T *p, size_t) { ::operator delete(p, kAlign); }

        bool operator==(const LineAllocator &) const { return true; }
        bool operator!=(const LineAllocator &) const { return false; }
    };
    using LineVector = std::vector<uint64_t, LineAllocator<uint64_t>>;

    static constexpr uint64_t kEmptyTag = ~0ull;

    std::string cacheName;
    unsigned assoc;
    unsigned lineShift;
    uint64_t numSets;
    unsigned latency;
    Cache *next;
    unsigned memLatency;
    LineVector tags;   ///< numSets * assoc, row-major by set
    LineVector ages;   ///< last-use clock of each way, same layout
    uint64_t useClock = 0;
    uint64_t hitCount = 0;
    uint64_t missCount = 0;

    /** Index of the first way of the set holding tag. */
    size_t setBase(uint64_t tag) const;
};

/** The full hierarchy used by the core model. */
struct CacheHierarchy
{
    Cache llc;
    Cache l2;
    Cache l1i;
    Cache l1d;

    /** Skylake-like sizes: 32K/32K L1, 256K L2, 2M LLC. */
    CacheHierarchy();

    /** Invalidate everything. */
    void reset();
};

} // namespace bpnsp

#endif // BPNSP_PIPELINE_CACHE_HPP
