/**
 * @file
 * Shared pieces of the benchmark runner: run configuration, the
 * closed-loop timing helper, sample statistics, the result a workload
 * hands back to main(), and the empty terminal sink every per-record
 * layer timing uses (a measuring sink must cost less than the layer it
 * measures, so the terminal consumer does nothing at all).
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/sink.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line arguments of one benchmark run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string served;     ///< path of the bpnsp_served binary
};

/** One printed metric: value, unit, and how many samples back it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
};

/** Everything a workload run reports. */
struct RunResult
{
    std::vector<Metric> metrics;
    std::vector<Metric> extra;   ///< printed in the table, not the JSON
    uint64_t attempted = 0;   ///< operations issued in the window
    uint64_t failed = 0;      ///< failed, refused or mismatched
    std::vector<std::string> mismatches;   ///< output-check failures

    void
    add(const std::string &name, double value, const std::string &unit,
        uint64_t samples)
    {
        metrics.push_back({name, value, unit, samples});
    }

    /** Record an output check that `count` operations failed. */
    void
    mismatch(const std::string &what, uint64_t count = 1)
    {
        mismatches.push_back(what);
        failed += count;
    }
};

/**
 * The q-quantile (0 < q < 1) of the samples by the nearest-rank rule,
 * so every reported percentile is a measured value.
 */
double percentile(std::vector<double> samples, double q);

using bpnsp::median;

/**
 * Quantile of each cell's unit latency in minstr_per_s: with at least
 * kMinCellSamples samples, ten or more lie beyond it. On a shared host
 * the contended speed is the common, stable state, and uncontended
 * spells come and go from run to run; an upper quantile sits in the
 * former (see LEDGER.md).
 */
constexpr double kCellQuantile = 0.9;
constexpr size_t kMinCellSamples = 100;

/**
 * Set-ups per untraced run, and the quantile of their times that
 * setup_s reports: eleven set-ups lie beyond the upper quartile of 44.
 */
constexpr int kSetupRepeats = 44;
constexpr double kSetupQuantile = 0.75;

/**
 * One cell of a workload's mix (an input, or a request key, class and
 * predictor): the wall seconds of its units of work, and the simulated
 * instructions (records) of one unit.
 */
struct Cell
{
    std::vector<double> seconds;
    double instructions = 0.0;
};

/**
 * Simulated Minstr per host second over the whole mix: every cell's
 * instructions over the sum of every cell's kCellQuantile latency, so
 * each input and predictor counts by its own cost. Returns 0 when a
 * cell holds fewer than kMinCellSamples samples.
 */
double mixMinstrPerSecond(const std::vector<Cell> &cells);

/**
 * A closed loop: call fn() back to back until `seconds` have passed
 * and at least `min_calls` calls finished (capped at four times
 * `seconds`, so a slow host cannot run past the harness timeout).
 * Returns the wall seconds of every call.
 */
std::vector<double> closedLoop(double seconds, size_t min_calls,
                               const std::function<void()> &fn);

/** Peak resident set (VmHWM) of a process in MiB; 0 when unknown. */
double peakRssMb(pid_t pid);

/**
 * Spans a traced run records around its calls into the library, kept
 * in memory (one log per thread). Only their cost matters: it is what
 * trace_overhead measures.
 */
class SpanLog
{
  public:
    void
    record(const char *name, Clock::time_point start,
           Clock::time_point end)
    {
        spans.push_back({name, start, end});
    }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
    };
    std::vector<Span> spans;
};

/** Terminal consumer that does nothing (see the file comment). */
class EmptySink : public bpnsp::TraceSink
{
  public:
    void onRecord(const bpnsp::TraceRecord &) override {}
};

/** @name Workload entry points (one per benchmark workload) */
/// @{
RunResult runIpcSweep(const RunConfig &cfg);
RunResult runCharacterize(const RunConfig &cfg);
RunResult runTraceReplay(const RunConfig &cfg);
RunResult runServeMix(const RunConfig &cfg);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
