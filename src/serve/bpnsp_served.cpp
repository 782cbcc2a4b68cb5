/**
 * @file
 * bpnsp_served: the prediction-serving daemon. Binds one UNIX-domain
 * socket (there is no TCP listener), serves concurrent
 * bpnsp-serve-v3 requests — predictor simulation over trace slices,
 * per-branch and per-target-class branch stats, trace
 * materialization — from a shared on-disk trace corpus, answers Ping
 * and Stats probes from its io thread, and drains gracefully on
 * SIGINT/SIGTERM:
 * in-flight requests finish, the listener closes immediately, and the
 * final run report (--metrics-out) captures the serve.* counters.
 *
 * The daemon is one process: one ServeServer whose --threads
 * simulation workers share the process-wide decoded-chunk cache and
 * each run one request at a time, popping one bounded FIFO admission
 * queue (--queue-depth): a request arriving at a full queue is refused
 * with RESOURCE_EXHAUSTED and a retry-after hint. The client never
 * retries on its own; resending is the caller's choice.
 *
 * Quickstart:
 *   bpnsp_served --socket=/tmp/bpnsp.sock --trace-cache=/tmp/traces &
 *   bpnsp_client --socket=/tmp/bpnsp.sock --op=simulate \
 *       --workload=mcf_like --predictor=gshare --instructions=200000
 *
 * Exit status: 0 on a clean drain (signal or --max-seconds), 1 when
 * the server could not start.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"
#include "tracestore/chunk_cache.hpp"
#include "util/cancel.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/signals.hpp"

using namespace bpnsp;

int
main(int argc, char **argv)
{
    OptionParser opts(
        "Serve trace/simulation queries over a UNIX-domain socket.");
    opts.addString("socket", "bpnsp_served.sock",
                   "UNIX-domain socket path to bind");
    opts.addInt("threads", 4,
                "simulation worker threads, 1 to " +
                    std::to_string(serve::kMaxServeWorkers));
    opts.addInt("queue-depth", 64,
                "admission queue bound; beyond it requests are "
                "rejected with RESOURCE_EXHAUSTED");
    opts.addString("trace-cache", "",
                   "trace corpus directory (required)");
    opts.addInt("chunk-cache-mb", 64,
                "in-memory decoded-chunk LRU capacity (0 = off)");
    opts.addInt("max-seconds", 0,
                "self-terminate (drain) after N seconds (0 = run "
                "until signalled)");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    // Shared signal discipline (util/signals.hpp): the first
    // SIGINT/SIGTERM fires the global cancel token and returns; we
    // notice below and drain. A second signal force-exits.
    signals::installGracefulDrain();

    const std::string &cacheDir = opts.getString("trace-cache");
    if (cacheDir.empty())
        fatal("bpnsp_served needs --trace-cache: the corpus directory "
              "to serve");

    if (const int64_t mb = opts.getInt("chunk-cache-mb"); mb > 0)
        DecodedChunkCache::instance().setCapacityBytes(
            static_cast<size_t>(mb) * 1024 * 1024);

    const int64_t threads = opts.getInt("threads");
    if (threads < 1 || threads > serve::kMaxServeWorkers)
        fatal("--threads=", threads, " outside [1, ",
              serve::kMaxServeWorkers, "]");
    const int64_t queueDepth = opts.getInt("queue-depth");
    if (queueDepth < 1)
        fatal("--queue-depth=", queueDepth, " must be at least 1");

    serve::ServeConfig config;
    config.socketPath = opts.getString("socket");
    config.workers = static_cast<unsigned>(threads);
    config.queueDepth = static_cast<size_t>(queueDepth);
    config.traceCacheDir = cacheDir;

    serve::ServeServer server(std::move(config));
    if (const Status st = server.start(); !st.ok()) {
        warn("bpnsp_served: ", st.str());
        return 1;
    }
    obs::Registry::instance().setRunField("serve_socket",
                                          server.config().socketPath);

    // Idle until the signal token fires or the wall budget expires.
    // The serving work itself happens on the server's own threads.
    const int64_t maxSeconds = opts.getInt("max-seconds");
    const auto start = std::chrono::steady_clock::now();
    while (!globalCancelToken().cancelled()) {
        if (maxSeconds > 0 &&
            std::chrono::steady_clock::now() - start >=
                std::chrono::seconds(maxSeconds))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    inform("bpnsp_served: draining (in-flight requests finish, "
           "listener closed)");
    server.drain();

    // The run report flushes through the --metrics-out atexit hook
    // (obs::configureFromOptions), after the drain has settled every
    // serve.* counter.
    std::printf("bpnsp_served: drained cleanly\n");
    return 0;
}
