/**
 * @file
 * Run-wide telemetry: a process-wide registry of named counters,
 * gauges, and log2-bucketed histograms, cheap enough for hot paths.
 *
 * Design rules:
 *  - Handles are resolved once (`static obs::Counter &c =
 *    obs::counter("tracestore.cache.hits");`) and then cost a single
 *    relaxed atomic add per event. Metric objects are never destroyed
 *    or moved, so a resolved handle stays valid for the process
 *    lifetime — including across resetForTest(), which zeroes values
 *    but keeps identities.
 *  - Names follow the `subsystem.noun_verb` scheme documented in
 *    DESIGN.md (e.g. `tracestore.cache.hits`, `core.run_trace_ns`);
 *    histograms of durations carry a `_ns` suffix, sizes a `_bytes`
 *    suffix.
 *  - Everything is thread-safe: registration takes a mutex once per
 *    call site, updates are lock-free atomics.
 *
 * The JSON run-report exporter over this registry lives in
 * obs/report.hpp.
 */

#ifndef BPNSP_OBS_METRICS_HPP
#define BPNSP_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bpnsp::obs {

/** Monotonic event counter (atomic, relaxed ordering). */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        val.fetch_add(n, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    uint64_t value() const { return val.load(std::memory_order_relaxed); }

  private:
    friend class Registry;

    void reset() { val.store(0, std::memory_order_relaxed); }

    std::atomic<uint64_t> val{0};
};

/** Last-writer-wins instantaneous value (e.g. a fan-out width). */
class Gauge
{
  public:
    void
    set(double x)
    {
        val.store(x, std::memory_order_relaxed);
    }

    double value() const { return val.load(std::memory_order_relaxed); }

  private:
    friend class Registry;

    void reset() { val.store(0.0, std::memory_order_relaxed); }

    std::atomic<double> val{0.0};
};

/** Read-only summary of a histogram at one instant. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;       ///< meaningless when count == 0
    uint64_t max = 0;       ///< meaningless when count == 0
    double mean = 0.0;      ///< 0 when empty
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;

    bool empty() const { return count == 0; }
};

/**
 * Fixed-footprint histogram over unsigned values (durations in ns,
 * sizes in bytes, per-chunk record counts, ...). Buckets are powers of
 * two: bucket 0 holds the value 0, bucket i (i >= 1) holds values in
 * [2^(i-1), 2^i). observe() is a relaxed atomic add plus CAS-free
 * min/max maintenance, safe from any thread.
 *
 * Percentiles are estimated by linear interpolation inside the bucket
 * the requested rank falls in, then clamped to the observed [min, max]
 * — exact for single-valued histograms, within one bucket otherwise.
 */
class Histogram
{
  public:
    static constexpr size_t kBuckets = 65;   // value 0 + bit widths 1..64

    void
    observe(uint64_t v)
    {
        buckets[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
        n.fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(v, std::memory_order_relaxed);
        updateMin(v);
        updateMax(v);
    }

    uint64_t count() const { return n.load(std::memory_order_relaxed); }
    uint64_t sum() const { return total.load(std::memory_order_relaxed); }

    /** Consistent-enough summary for reporting (relaxed reads). */
    HistogramSnapshot snapshot() const;

    /** Approximate p-th percentile (0 <= p <= 100); 0 when empty. */
    double percentile(double p) const;

  private:
    friend class Registry;

    static size_t
    bucketIndex(uint64_t v)
    {
        size_t w = 0;
        while (v != 0) {
            ++w;
            v >>= 1;
        }
        return w;   // 0 for value 0, else bit width in [1, 64]
    }

    void updateMin(uint64_t v);
    void updateMax(uint64_t v);
    void reset();

    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> n{0};
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> lo{UINT64_MAX};
    std::atomic<uint64_t> hi{0};
};

/**
 * The process-wide metric registry. Also owns the run manifest — the
 * free-form key/value fields (workload, input, predictor, binary, ...)
 * the JSON run report embeds under "run". Instrumented layers call
 * setRunField() as they learn run identity; the last writer wins,
 * which matches "the report describes the run's final configuration".
 */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create; the returned reference is valid forever. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Current value of a counter, 0 when it was never registered. */
    uint64_t counterValue(const std::string &name) const;

    /** Set one run-manifest field (overwrites). */
    void setRunField(const std::string &key, const std::string &value);

    /** Copy of the run manifest. */
    std::map<std::string, std::string> runFields() const;

    /** Wall-clock seconds since the registry was created. */
    double wallSeconds() const;

    /** @name Snapshot access for the exporter (names are sorted). */
    /// @{
    std::vector<std::pair<std::string, uint64_t>> counters() const;
    std::vector<std::pair<std::string, double>> gauges() const;
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histograms() const;
    /// @}

    /**
     * Zero every metric and clear the manifest, keeping every metric
     * object alive so resolved handles stay valid. Tests only.
     */
    void resetForTest();

  private:
    Registry();

    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counterMap;
    std::map<std::string, std::unique_ptr<Gauge>> gaugeMap;
    std::map<std::string, std::unique_ptr<Histogram>> histogramMap;
    std::map<std::string, std::string> manifest;
    std::chrono::steady_clock::time_point start;
};

/** @name Registry::instance() shorthands for hot-path handle setup. */
/// @{
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name);
/// @}

/**
 * RAII phase timer: records the elapsed wall time in nanoseconds into
 * a histogram on destruction. Resolve the histogram once per call site:
 *
 *   static obs::Histogram &h = obs::histogram("core.run_trace_ns");
 *   obs::ScopedTimer timer(h);
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &hist)
        : h(hist), begin(std::chrono::steady_clock::now())
    {
    }

    // Deliberately no ScopedTimer(const std::string&) convenience:
    // it hid a mutex-guarded map lookup inside what looks like a
    // cheap RAII guard, inviting per-call registry lookups on hot
    // paths. Resolve the handle once (static reference) instead.

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count();
        h.observe(static_cast<uint64_t>(ns < 0 ? 0 : ns));
    }

  private:
    Histogram &h;
    std::chrono::steady_clock::time_point begin;
};

} // namespace bpnsp::obs

#endif // BPNSP_OBS_METRICS_HPP
