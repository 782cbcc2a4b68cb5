/**
 * @file
 * Serving-path micro-benchmark: end-to-end request latency and
 * throughput of bpnsp_served as the closed-loop client count grows.
 *
 * Starts an in-process ServeServer over a scratch trace corpus, warms
 * the corpus (one trace generation + one replay so the decoded-chunk
 * cache is hot), then sweeps client counts — each level running the
 * closed-loop load generator from serve/client.hpp: every client keeps
 * exactly one Simulate request outstanding, so offered load rises with
 * the client count and queueing shows up directly in the tail.
 *
 * Reported per level: exact p50/p99 reply latency and aggregate
 * req/sec, both as a table and as bench.serve_latency.* gauges so a
 * --metrics-out report (BENCH_serve_latency.json) doubles as a perf
 * trajectory data point.
 *
 * An A/B stage reruns one fixed level with span recording off then on
 * (obs/trace.hpp) and reports the tracing overhead as
 * bench.serve_latency.tracing.* gauges — the acceptance budget is
 * <= 2% on this path, checked from the same report.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "util/logging.hpp"
#include "serve/server.hpp"
#include "tracestore/chunk_cache.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;
using namespace bpnsp::serve;

int
main(int argc, char **argv)
{
    OptionParser opts(
        "Serve-path latency/throughput vs concurrent client count.");
    opts.addString("workload", "mcf_like", "workload to serve");
    opts.addInt("instructions", 2000000, "trace length (pre-scale)");
    opts.addInt("requests", 32, "requests per client per level");
    opts.addInt("slice", 200000,
                "random slice width per request (0 = whole trace)");
    opts.addInt("workers", 4, "server worker threads");
    opts.addInt("batch", 8, "max same-slice requests per replay pass");
    opts.addString("clients", "1,2,4,8",
                   "comma-separated client counts to sweep");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    std::vector<unsigned> levels;
    {
        std::string csv = opts.getString("clients");
        size_t pos = 0;
        while (pos < csv.size()) {
            const size_t comma = csv.find(',', pos);
            const std::string tok =
                csv.substr(pos, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - pos);
            if (!tok.empty())
                levels.push_back(
                    static_cast<unsigned>(std::stoul(tok)));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }
    if (levels.empty())
        fatal("--clients parsed to an empty sweep");

    // Self-contained corpus + socket under /tmp; an explicit
    // --trace-cache (via parseScale) reuses a real corpus instead.
    std::string cacheDir = traceCacheDir();
    if (cacheDir.empty()) {
        cacheDir = "/tmp/bpnsp-serve-bench-cache";
        setTraceCacheDir(cacheDir);
    }
    const std::string socketPath = "/tmp/bpnsp-serve-bench.sock";
    DecodedChunkCache::instance().setCapacityBytes(128ull * 1024 *
                                                   1024);

    banner("Serving-path latency under concurrent load",
           "the Sec. III trace-reuse methodology, as a service");
    const Workload w = findWorkload(opts.getString("workload"));
    std::printf("workload %s, %llu-record trace, %d worker(s), "
                "batch %d, corpus %s\n\n",
                w.name.c_str(),
                static_cast<unsigned long long>(instructions),
                static_cast<int>(opts.getInt("workers")),
                static_cast<int>(opts.getInt("batch")),
                cacheDir.c_str());

    ServeConfig config;
    config.socketPath = socketPath;
    config.workers = static_cast<unsigned>(opts.getInt("workers"));
    config.queueDepth = 256;
    config.maxBatch = static_cast<unsigned>(opts.getInt("batch"));
    config.traceCacheDir = cacheDir;
    ServeServer server(std::move(config));
    if (const Status st = server.start(); !st.ok())
        fatal("cannot start bench server: ", st.str());

    // Warm-up: one client, a few requests. The first pays trace
    // generation; the rest pull every chunk into the in-memory LRU so
    // the sweep measures serving, not disk.
    {
        LoadGenConfig warm;
        warm.socketPath = socketPath;
        warm.clients = 1;
        warm.requestsPerClient = 4;
        warm.workload = w.name;
        warm.instructions = instructions;
        warm.sliceRecords = 0;
        const LoadGenResult r = runLoadGen(warm);
        if (r.ok == 0)
            fatal("warm-up failed: no Ok replies");
    }

    TextTable table("Serve latency vs client count (" + w.name + ")");
    table.setHeader(
        {"clients", "ok", "rejected", "p50 ms", "p99 ms", "req/s"});
    for (const unsigned clients : levels) {
        LoadGenConfig cfg;
        cfg.socketPath = socketPath;
        cfg.clients = clients;
        cfg.requestsPerClient =
            static_cast<unsigned>(opts.getInt("requests"));
        cfg.workload = w.name;
        cfg.instructions = instructions;
        cfg.sliceRecords = static_cast<uint64_t>(
            static_cast<double>(opts.getInt("slice")) * scale);
        cfg.seed = 1 + clients;
        const LoadGenResult r = runLoadGen(cfg);

        table.beginRow();
        table.cell(static_cast<uint64_t>(clients));
        table.cell(r.ok);
        table.cell(r.rejected);
        table.cell(r.p50Ms, 2);
        table.cell(r.p99Ms, 2);
        table.cell(r.requestsPerSecond(), 0);

        const std::string prefix =
            "bench.serve_latency.c" + std::to_string(clients) + ".";
        obs::gauge(prefix + "p50_ms").set(r.p50Ms);
        obs::gauge(prefix + "p99_ms").set(r.p99Ms);
        obs::gauge(prefix + "req_per_sec")
            .set(r.requestsPerSecond());
        obs::gauge(prefix + "ok").set(static_cast<double>(r.ok));
        obs::gauge(prefix + "rejected")
            .set(static_cast<double>(r.rejected));
        if (r.transport != 0 || r.errors != 0)
            warn("level ", clients, ": ", r.transport,
                 " transport failure(s), ", r.errors,
                 " error reply(ies)");
    }
    emit(table, opts.getFlag("csv"));

    // Tracing overhead A/B: the same closed loop at one fixed level,
    // spans off then on. The recorder runs without an export sink —
    // pure hot-path cost (one ring write per span), which is what a
    // daemon pays with --trace-dir enabled.
    {
        const unsigned clients =
            levels.size() > 1 ? levels[levels.size() / 2]
                              : levels.front();
        auto runLevel = [&](bool traced) {
            obs::TraceRecorder::instance().setEnabled(traced);
            LoadGenConfig cfg;
            cfg.socketPath = socketPath;
            cfg.clients = clients;
            cfg.requestsPerClient =
                static_cast<unsigned>(opts.getInt("requests"));
            cfg.workload = w.name;
            cfg.instructions = instructions;
            cfg.sliceRecords = static_cast<uint64_t>(
                static_cast<double>(opts.getInt("slice")) * scale);
            cfg.seed = 99;   // same slices both sides of the A/B
            return runLoadGen(cfg);
        };
        const LoadGenResult base = runLevel(false);
        const LoadGenResult traced = runLevel(true);
        obs::TraceRecorder::instance().setEnabled(false);

        const double overheadPct =
            base.requestsPerSecond() > 0.0
                ? (base.requestsPerSecond() -
                   traced.requestsPerSecond()) /
                      base.requestsPerSecond() * 100.0
                : 0.0;
        std::printf("\ntracing overhead @ %u client(s): "
                    "%.0f req/s off, %.0f req/s on (%+.2f%%), "
                    "p50 %.2f -> %.2f ms\n",
                    clients, base.requestsPerSecond(),
                    traced.requestsPerSecond(), overheadPct,
                    base.p50Ms, traced.p50Ms);
        obs::gauge("bench.serve_latency.tracing.base_req_per_sec")
            .set(base.requestsPerSecond());
        obs::gauge("bench.serve_latency.tracing.traced_req_per_sec")
            .set(traced.requestsPerSecond());
        obs::gauge("bench.serve_latency.tracing.base_p50_ms")
            .set(base.p50Ms);
        obs::gauge("bench.serve_latency.tracing.traced_p50_ms")
            .set(traced.p50Ms);
        obs::gauge("bench.serve_latency.tracing.overhead_pct")
            .set(overheadPct);
    }

    server.drain();

    // Overload stage: a fresh server with the cost-budget admission
    // engaged, driven open-loop at 1x/4x/10x of its measured
    // closed-loop capacity. Offered load does not slow down when the
    // server does, so past 1x the queue is structurally oversubscribed
    // and the numbers that matter are the per-class tails (does the
    // interactive class stay flat while batch degrades?) and the shed
    // rate (how much the admission layer refuses instead of queueing).
    {
        const std::string overloadSocket =
            "/tmp/bpnsp-serve-bench-overload.sock";
        // Each level (and the probe) gets a fresh server so the
        // online cost model starts from its priors every time —
        // otherwise later levels inherit a better-calibrated model
        // and the levels stop being comparable.
        auto makeServer = [&] {
            ServeConfig oc;
            oc.socketPath = overloadSocket;
            oc.workers =
                static_cast<unsigned>(opts.getInt("workers"));
            oc.queueDepth = 256;
            oc.maxBatch =
                static_cast<unsigned>(opts.getInt("batch"));
            oc.traceCacheDir = cacheDir;
            oc.maxInflightCostMs = 200;
            auto server =
                std::make_unique<ServeServer>(std::move(oc));
            if (const Status st = server->start(); !st.ok())
                fatal("cannot start overload server: ", st.str());
            return server;
        };

        // Request count scales with the offered-load multiplier so
        // every level spans a comparable wall-clock window (a fixed
        // count at 10x would finish sending in a blink and sample
        // almost nothing).
        auto mixedLevel = [&](double hzPerClient, unsigned mult) {
            auto server = makeServer();
            LoadGenConfig cfg;
            cfg.socketPath = overloadSocket;
            cfg.clients = 4;
            cfg.requestsPerClient =
                static_cast<unsigned>(opts.getInt("requests")) * mult;
            cfg.workload = w.name;
            cfg.instructions = instructions;
            cfg.sliceRecords = static_cast<uint64_t>(
                static_cast<double>(opts.getInt("slice")) * scale);
            cfg.seed = 7;
            cfg.openLoopHz = hzPerClient;
            cfg.interactiveFraction = 0.5;
            cfg.deadlineMs = 2000;
            const LoadGenResult r = runLoadGen(cfg);
            server->drain();
            return r;
        };

        // Closed-loop first (openLoopHz = 0): the *served* rate it
        // sustains — Ok replies over the wall clock, not attempts,
        // since instantly-shed requests would inflate the number —
        // is the capacity the open-loop levels are scaled to.
        const LoadGenResult cap = mixedLevel(0.0, 1);
        const double capacityHz =
            cap.elapsedSeconds > 0.0
                ? static_cast<double>(cap.ok) / cap.elapsedSeconds
                : 0.0;
        if (capacityHz <= 0.0)
            fatal("overload capacity probe served nothing");

        TextTable overloadTable(
            "Overload: offered load vs per-class tails (" + w.name +
            ")");
        overloadTable.setHeader({"offered", "ok", "shed", "expired",
                                 "int p50", "int p99", "batch p99",
                                 "shed rate"});
        for (const unsigned mult : {1u, 4u, 10u}) {
            const LoadGenResult r =
                mixedLevel(capacityHz * mult / 4.0, mult);
            const double shedRate =
                r.attempted != 0 ? static_cast<double>(r.rejected) /
                                       static_cast<double>(r.attempted)
                                 : 0.0;

            overloadTable.beginRow();
            overloadTable.cell(std::to_string(mult) + "x");
            overloadTable.cell(r.ok);
            overloadTable.cell(r.rejected);
            overloadTable.cell(r.expired);
            overloadTable.cell(r.interactiveP50Ms, 2);
            overloadTable.cell(r.interactiveP99Ms, 2);
            overloadTable.cell(r.batchP99Ms, 2);
            overloadTable.cell(shedRate, 4);

            const std::string prefix =
                "bench.serve_latency.overload.x" +
                std::to_string(mult) + ".";
            obs::gauge(prefix + "interactive_p50_ms")
                .set(r.interactiveP50Ms);
            obs::gauge(prefix + "interactive_p99_ms")
                .set(r.interactiveP99Ms);
            obs::gauge(prefix + "batch_p99_ms").set(r.batchP99Ms);
            obs::gauge(prefix + "shed_rate").set(shedRate);
            obs::gauge(prefix + "ok").set(static_cast<double>(r.ok));
            obs::gauge(prefix + "expired")
                .set(static_cast<double>(r.expired));
            if (r.mismatches != 0)
                warn("overload level ", mult, "x: ", r.mismatches,
                     " mismatch(es)");
        }
        std::printf("\ncapacity probe: %.0f req/s closed-loop\n",
                    capacityHz);
        obs::gauge("bench.serve_latency.overload.capacity_req_per_sec")
            .set(capacityHz);
        std::printf("\n");
        emit(overloadTable, opts.getFlag("csv"));
    }

    std::printf("drained; corpus retained at %s\n", cacheDir.c_str());
    return 0;
}
