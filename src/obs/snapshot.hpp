/**
 * @file
 * Periodic time-series snapshots of the metric registry.
 *
 * The run report (obs/report.hpp) is an exit-time aggregate: one
 * p99 for the whole run. That hides exactly the things a serving
 * daemon cares about — a latency spike during a drain, queue depth
 * ramping toward backpressure, cache hit rate decaying as the
 * working set rotates. The SnapshotSampler closes that gap: a
 * background thread samples the registry every `--snapshot-ms`
 * milliseconds and stores *interval* views — counter deltas and
 * windowed histogram quantiles computed from log2-bucket deltas
 * (Histogram::percentileFromBuckets), not cumulative ones — into a
 * fixed-capacity ring. When the ring fills, the oldest samples are
 * overwritten: a long-lived daemon keeps the most recent window at
 * bounded memory.
 *
 * The ring is exported as the `"snapshots"` section of the run
 * report (schema_rev >= 6), which is how a run report carries
 * p99-over-time curves instead of one aggregate number.
 *
 * Sampling cost is proportional to registry size (a mutex-guarded
 * map walk), entirely off every hot path; with the sampler stopped
 * (the default) nothing is paid at all.
 */

#ifndef BPNSP_OBS_SNAPSHOT_HPP
#define BPNSP_OBS_SNAPSHOT_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace bpnsp::obs {

/** One interval sample: what happened since the previous sample. */
struct Snapshot
{
    /** Windowed histogram view (quantiles of this interval only). */
    struct HistWindow
    {
        std::string name;
        uint64_t count = 0;   ///< events in this interval
        double p50 = 0.0;
        double p90 = 0.0;
        double p99 = 0.0;
        double p999 = 0.0;
    };

    double tSeconds = 0.0;   ///< registry wall clock at sample time

    /** Counter increments over the interval; zero deltas omitted. */
    std::vector<std::pair<std::string, uint64_t>> counterDeltas;

    /** Gauges are instantaneous — current value at sample time. */
    std::vector<std::pair<std::string, double>> gauges;

    /** Histograms that saw events this interval. */
    std::vector<HistWindow> histograms;
};

class SnapshotSampler
{
  public:
    static SnapshotSampler &instance();

    /**
     * Start the background sampler (idempotent). `capacity` bounds
     * the ring; once exceeded the oldest samples are overwritten.
     */
    void start(uint64_t period_ms, size_t capacity = kDefaultCapacity);

    /** Stop the background thread, taking one final sample. */
    void stop();

    /**
     * Take one sample now (also the test entry point — tests drive
     * the ring deterministically without the thread).
     */
    void sampleOnce();

    /** Ring contents, oldest first. */
    std::vector<Snapshot> samples() const;

    /** Total samples ever taken (> samples().size() once wrapped). */
    uint64_t totalSamples() const;

    uint64_t periodMs() const;
    bool running() const;

    /** Tests only: clear the ring, baselines, and configuration. */
    void resetForTest();

    /**
     * Tests only: set the ring capacity without starting the thread,
     * so wraparound is driven deterministically via sampleOnce().
     */
    void setCapacityForTest(size_t capacity);

    static constexpr size_t kDefaultCapacity = 512;

  private:
    SnapshotSampler() = default;

    void sampleLocked();

    mutable std::mutex mu;
    std::vector<Snapshot> ring;
    size_t cap = kDefaultCapacity;
    uint64_t taken = 0;       ///< total samples; ring slot = taken % cap
    uint64_t period = 0;

    // Interval baselines from the previous sample.
    std::map<std::string, uint64_t> prevCounters;
    std::map<const Histogram *, Histogram::BucketCounts> prevBuckets;

    std::thread worker;
    std::atomic<bool> stopFlag{false};
    bool threadRunning = false;
};

} // namespace bpnsp::obs

#endif // BPNSP_OBS_SNAPSHOT_HPP
