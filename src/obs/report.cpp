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
    // the instrumented paths (e.g. a bench invoked with --help-ish
    // flows): touching a counter registers it at value 0.
    for (const char *name :
         {"run.instructions", "tracestore.cache.hits",
          "tracestore.cache.misses", "bp.predictions",
          "bp.mispredicts",
          // Robustness counters (schema_rev 2): consumers key off
          // these to detect runs that healed themselves.
          "tracestore.replay.chunk_retries",
          "tracestore.cache.quarantined", "core.runner.degraded_runs",
          "faultsim.injected",
          // Campaign/cancellation counters (schema_rev 3): every
          // report proves whether the run was a campaign, whether it
          // resumed, and whether any delivery loop was cancelled.
          // Invariant checked downstream: cells_done + cells_failed +
          // cells_skipped == cells_total once a campaign drains
          // (campaign.interrupted == 0).
          "campaign.cells_total", "campaign.cells_done",
          "campaign.cells_failed", "campaign.cells_retried",
          "campaign.cells_skipped", "campaign.resumed",
          "campaign.interrupted", "core.runner.cancelled",
          // Serving counters (schema_rev 4): every report proves
          // whether the run served requests, and the admission books
          // must balance — serve.accepted + serve.rejected ==
          // serve.requests once a server drains, and serve.completed
          // never exceeds serve.accepted.
          "serve.requests", "serve.accepted", "serve.rejected",
          "serve.completed", "serve.frames_corrupt",
          // Observability counter (schema_rev 6): every report
          // proves whether the daemon answered live Stats requests.
          "serve.stats_requests",
          // Client-retry counters (schema_rev 7): every report proves
          // whether the run's clients needed retries, and how many
          // calls gave up after the retry budget.
          "serve.client.retries", "serve.client.gave_up",
          // Overload counters (schema_rev 8): every report proves how
          // the run behaved past saturation — full-queue refusals and
          // deadline expiries swept before execution. Invariant
          // checked downstream: serve.shed + serve.accepted never
          // exceeds serve.requests (a shed request is never also
          // handed to a worker).
          "serve.shed", "serve.expired",
          // Frontend counters (schema_rev 9): every report proves what
          // the fetch engine cost — BTB misses, RAS overflows,
          // indirect-target mispredicts, and the FTQ-unabsorbed stall
          // cycles. All zero in runs that never wire a FrontendModel
          // (the frontend is opt-in per simulation).
          "frontend.btb_miss", "frontend.ras_over",
          "frontend.ind_mispred", "frontend.ftq_stall_cycles"}) {
        reg.counter(name);
    }

    // schema_rev bumps within the v1 schema: rev 2 added
    // the robustness counter contract, rev 3 the campaign /
    // cancellation contract, rev 4 the serving contract, rev 5 the
    // synthesis contract, rev 6 the tracing/introspection contract
    // plus exact histogram quantiles (p999) and an optional
    // "snapshots" section this writer never emits, rev 7 adds the
    // fleet-supervision / client-retry contract, rev 8 the overload
    // contract (shed / expired / hedges / hedge_wins), rev 9 the frontend
    // contract above (btb_miss / ras_over / ind_mispred /
    // ftq_stall_cycles). Rev 10 drops rev 7's three fleet-supervision
    // keys (worker deaths, respawns, breaker trips) with the
    // multi-process fleet they counted. Rev 11 drops rev 8's
    // serve.hedges / serve.hedge_wins with the client hedging they
    // counted. Rev 12 drops rev 5's four synth.* keys with the
    // workload synthesis they counted. Rev 13 drops rev 6's
    // obs.spans_recorded / obs.spans_dropped with the span tracing
    // they counted. Nothing is ever renamed, so v1
    // consumers keep parsing and rev-aware consumers know which keys
    // are guaranteed present at each rev.
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"bpnsp-run-report-v1\",\n"
        << "  \"schema_rev\": 13,\n  \"run\": {\n";
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
