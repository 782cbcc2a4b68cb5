/**
 * @file
 * JSON run reports over the obs metric registry.
 *
 * A run report is one JSON document per process run: a `run` manifest
 * (binary, workload, input, predictor, instruction budget, git
 * describe, wall seconds) plus every counter, gauge, and histogram
 * registered at export time. The schema is documented in DESIGN.md
 * ("Telemetry"); reports are stable input for CI artifacts and the
 * BENCH_*.json perf-trajectory files.
 *
 * Every binary that parses options through OptionParser accepts
 * --metrics-out=FILE (write the run report on exit) after calling
 * obs::configureFromOptions(opts) once after parse().
 */

#ifndef BPNSP_OBS_REPORT_HPP
#define BPNSP_OBS_REPORT_HPP

#include <string>

namespace bpnsp {

class OnlineStats;
class OptionParser;

namespace obs {

/**
 * Render the full run report as a JSON document. Always contains the
 * keys `run.instructions`, `run.wall_seconds`, `run.git`,
 * `counters["tracestore.cache.{hits,misses}"]`, and
 * `counters["bp.{predictions,mispredicts}"]` (0 when untouched), so
 * downstream tooling can rely on them.
 */
std::string renderRunReport();

/**
 * Render the live-introspection snapshot served over the wire by the
 * Stats request (`bpnsp-stats-v1`): the full metric registry —
 * counters, gauges, histograms with the exact p50/p90/p99/p999
 * quantile contract — plus uptime and git identity. Same section
 * format as the run report, minus the run manifest: cheap enough to
 * build on a server's io thread.
 */
std::string renderStatsSnapshotJson();

/** Write renderRunReport() to `path`; warn() and false on failure. */
bool writeRunReport(const std::string &path);

/**
 * Arrange for the run report to be written to `path` at process exit
 * (std::atexit). An empty path cancels a pending exit report.
 */
void setReportPath(const std::string &path);

/**
 * Install SIGINT/SIGTERM handlers (idempotent). The first signal
 * fires the global cancel token (util/cancel.hpp) so cooperative
 * loops drain; unless graceful-drain mode is on, it then writes the
 * pending run report and re-raises, so a Ctrl-C'd run still leaves a
 * valid --metrics-out file instead of losing everything std::atexit
 * would have written. A second signal always force-exits immediately
 * (128+sig), report or no report.
 *
 * Installed automatically by configureFromOptions() when
 * --metrics-out is set; binaries that supervise their own drain (the
 * campaign driver) install explicitly and enable graceful mode.
 */
void installSignalHandlers();

/**
 * Graceful-drain mode: when on, the first signal only fires the
 * cancel token — the caller owns flushing journals/reports and
 * exiting. Off (the default), the first signal writes the report and
 * re-raises.
 */
void setSignalDrainMode(bool graceful);

/** The pending exit-report path ("" when none). */
std::string reportPath();

/**
 * Wire the standard telemetry options (registered by every
 * OptionParser): --metrics-out installs the exit report. Also records
 * the binary name in the run manifest. Call once, after opts.parse().
 */
void configureFromOptions(const OptionParser &opts);

/**
 * Serialize an OnlineStats accumulator as a JSON object. Empty
 * accumulators emit null for min/max/mean/stddev — an empty stat is
 * not the same thing as one that observed 0 (see
 * OnlineStats::empty()).
 */
std::string statsJson(const OnlineStats &stats);

/** git describe of the built tree ("unknown" outside a git checkout). */
std::string gitDescribe();

} // namespace obs
} // namespace bpnsp

#endif // BPNSP_OBS_REPORT_HPP
