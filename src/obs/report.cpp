#include "obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/signals.hpp"
#include "util/stats.hpp"

namespace bpnsp::obs {

namespace {

std::mutex gReportMutex;
std::string gReportPath;
bool gAtExitInstalled = false;

// Signal-hook state. The hook cannot take gReportMutex (the
// interrupted thread might hold it), so the report path is mirrored
// into a fixed buffer it can read lock-free.
char gSignalReportPath[4096] = {};

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

void
writeReportAtExit()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(gReportMutex);
        path = gReportPath;
    }
    if (!path.empty())
        writeRunReport(path);
}

/**
 * First-signal hook registered with util/signals: flush the pending
 * run report before the shared handler re-raises with the default
 * disposition, so the exit status stays honest.
 *
 * The report flush is deliberately not async-signal-safe (it
 * allocates and formats); this is the standard last-gasp trade every
 * profiler/simulator makes: the alternative is Ctrl-C silently
 * discarding an hours-long run's telemetry. The one real hazard —
 * self-deadlock on gReportMutex — is avoided by reading the path from
 * the lock-free mirror and the registry's snapshot locks being held
 * only for short, signal-free critical sections.
 */
void
reportFlushHook(int /*sig*/)
{
    if (gSignalReportPath[0] != '\0')
        writeRunReport(gSignalReportPath);
}

/**
 * Emit the "counters"/"gauges"/"histograms" sections shared by the
 * run report and the live Stats snapshot (no trailing comma or
 * newline — the caller closes the document). Histograms carry the
 * exact quantile contract: p50/p90/p99/p999 computed by the
 * histogram itself, so no consumer ever re-derives quantiles from
 * raw log2 buckets.
 */
void
appendRegistrySections(std::ostringstream &oss)
{
    Registry &reg = Registry::instance();

    oss << "  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : reg.counters()) {
        oss << (first ? "\n" : ",\n") << "    " << quoted(name) << ": "
            << value;
        first = false;
    }
    oss << "\n  },\n";

    oss << "  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : reg.gauges()) {
        oss << (first ? "\n" : ",\n") << "    " << quoted(name) << ": "
            << jsonNumber(value);
        first = false;
    }
    oss << (first ? "" : "\n  ") << "},\n";

    oss << "  \"histograms\": {";
    first = true;
    for (const auto &[name, s] : reg.histograms()) {
        oss << (first ? "\n" : ",\n") << "    " << quoted(name) << ": ";
        if (s.empty()) {
            // An empty histogram is not one that observed zeros.
            oss << "{\"count\":0,\"sum\":0,\"min\":null,\"max\":null,"
                   "\"mean\":null,\"p50\":null,\"p90\":null,"
                   "\"p99\":null,\"p999\":null}";
        } else {
            oss << "{\"count\":" << s.count << ",\"sum\":" << s.sum
                << ",\"min\":" << s.min << ",\"max\":" << s.max
                << ",\"mean\":" << jsonNumber(s.mean)
                << ",\"p50\":" << jsonNumber(s.p50)
                << ",\"p90\":" << jsonNumber(s.p90)
                << ",\"p99\":" << jsonNumber(s.p99)
                << ",\"p999\":" << jsonNumber(s.p999) << "}";
        }
        first = false;
    }
    oss << (first ? "" : "\n  ") << "}";
}

} // namespace

std::string
gitDescribe()
{
#ifdef BPNSP_GIT_DESCRIBE
    return BPNSP_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

std::string
statsJson(const OnlineStats &stats)
{
    std::ostringstream oss;
    oss << "{\"count\":" << stats.count();
    if (stats.empty()) {
        oss << ",\"sum\":0,\"min\":null,\"max\":null,\"mean\":null,"
               "\"stddev\":null}";
        return oss.str();
    }
    oss << ",\"sum\":" << jsonNumber(stats.sum())
        << ",\"min\":" << jsonNumber(stats.min())
        << ",\"max\":" << jsonNumber(stats.max())
        << ",\"mean\":" << jsonNumber(stats.mean())
        << ",\"stddev\":" << jsonNumber(stats.stddev()) << "}";
    return oss.str();
}

std::string
renderRunReport()
{
    Registry &reg = Registry::instance();

    // Guarantee the contract keys exist even in runs that never touch
    // the instrumented paths: touching a counter registers it at value
    // 0, so a report can tell "did not happen" from "not measured".
    // scripts/check_run_report.py requires every key of this set at the
    // schema_rev written below; change both together.
    for (const char *name :
         {"run.instructions", "tracestore.cache.hits",
          "tracestore.cache.misses", "bp.predictions",
          "bp.mispredicts",
          // Robustness: whether the run healed itself (retried
          // chunks, quarantined entries, degraded runs) and whether
          // fault injection was active.
          "tracestore.replay.chunk_retries",
          "tracestore.cache.quarantined", "core.runner.degraded_runs",
          "faultsim.injected",
          // Campaigns and cancellation. Once a campaign drains
          // (campaign.interrupted == 0), cells_done + cells_failed +
          // cells_skipped == cells_total.
          "campaign.cells_total", "campaign.cells_done",
          "campaign.cells_failed", "campaign.cells_retried",
          "campaign.cells_skipped", "campaign.resumed",
          "campaign.interrupted", "core.runner.cancelled",
          // Serving. serve.accepted + serve.rejected and serve.shed +
          // serve.accepted never exceed serve.requests (a request
          // refused by the full FIFO queue never reaches a worker),
          // serve.completed never exceeds serve.accepted, and a Stats
          // pull is one of serve.requests.
          "serve.requests", "serve.accepted", "serve.rejected",
          "serve.completed", "serve.frames_corrupt",
          "serve.stats_requests", "serve.shed", "serve.expired",
          // Frontend: BTB misses, RAS overflows, indirect-target
          // mispredicts and FTQ-unabsorbed stall cycles; all zero in
          // runs that never wire a FrontendModel.
          "frontend.btb_miss", "frontend.ras_over",
          "frontend.ind_mispred", "frontend.ftq_stall_cycles"}) {
        reg.counter(name);
    }

    std::ostringstream oss;
    oss << "{\n  \"schema\": \"bpnsp-run-report-v1\",\n"
        << "  \"schema_rev\": 14,\n  \"run\": {\n";
    for (const auto &[key, value] : reg.runFields())
        oss << "    " << quoted(key) << ": " << quoted(value) << ",\n";
    oss << "    \"git\": " << quoted(gitDescribe()) << ",\n"
        << "    \"instructions\": "
        << reg.counterValue("run.instructions") << ",\n"
        << "    \"wall_seconds\": " << jsonNumber(reg.wallSeconds())
        << "\n  },\n";

    appendRegistrySections(oss);

    oss << "\n}\n";
    return oss.str();
}

std::string
renderStatsSnapshotJson()
{
    Registry &reg = Registry::instance();
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"bpnsp-stats-v1\",\n"
        << "  \"git\": " << quoted(gitDescribe()) << ",\n"
        << "  \"wall_seconds\": " << jsonNumber(reg.wallSeconds())
        << ",\n";
    appendRegistrySections(oss);
    oss << "\n}\n";
    return oss.str();
}

bool
writeRunReport(const std::string &path)
{
    const std::string doc = renderRunReport();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot open metrics report for writing: ", path);
        return false;
    }
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (std::fclose(f) != 0 || !ok) {
        warn("short write to metrics report: ", path);
        return false;
    }
    return true;
}

void
setReportPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(gReportMutex);
    gReportPath = path;
    std::snprintf(gSignalReportPath, sizeof(gSignalReportPath), "%s",
                  path.c_str());
    if (!path.empty() && !gAtExitInstalled) {
        gAtExitInstalled = true;
        std::atexit(writeReportAtExit);
    }
}

void
installSignalHandlers()
{
    signals::setFirstSignalHook(reportFlushHook);
    signals::installHandlers();
}

void
setSignalDrainMode(bool graceful)
{
    signals::setDrainMode(graceful);
}

std::string
reportPath()
{
    std::lock_guard<std::mutex> lock(gReportMutex);
    return gReportPath;
}

void
configureFromOptions(const OptionParser &opts)
{
    Registry::instance().setRunField("binary", opts.binaryName());
    if (const std::string &path = opts.getString("metrics-out");
        !path.empty()) {
        setReportPath(path);
        // With a report at stake, Ctrl-C must flush it, not lose it.
        installSignalHandlers();
    }
}

} // namespace bpnsp::obs
