/**
 * @file
 * bpnsp_client: command-line client for a running bpnsp_served.
 *
 * Single-request mode (--op=ping|simulate|branch-stats|materialize)
 * sends one request, once, and prints one human-readable result (a
 * RESOURCE_EXHAUSTED or BUSY reply is printed and exits 1; the caller
 * decides whether to try again); --op=stats pulls the server's live
 * metric-registry snapshot (add --watch to poll it; the watch survives
 * daemon restarts by reconnecting with backoff); --op=loadgen runs the
 * closed-loop load generator (N concurrent clients, optional
 * randomized kills and reply verification) and prints its aggregate
 * tally.
 *
 * Examples:
 *   bpnsp_client --socket=/tmp/b.sock --op=ping
 *   bpnsp_client --socket=/tmp/b.sock --op=simulate \
 *       --workload=mcf_like --predictor=gshare \
 *       --instructions=200000 --first=50000 --count=100000
 *   bpnsp_client --socket=/tmp/b.sock --op=stats --watch
 *   bpnsp_client --socket=/tmp/b.sock --op=loadgen --clients=32 \
 *       --requests=64 --kill-prob=0.05 --verify
 *
 * Exit status: 0 on an Ok reply (loadgen: no transport errors and no
 * verify mismatches), 1 otherwise.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <thread>

#include "util/json.hpp"

#include "serve/client.hpp"
#include "trace/record.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"

using namespace bpnsp;
using namespace bpnsp::serve;

namespace {

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kMaxI64 = std::numeric_limits<int64_t>::max();

/**
 * Integer option `name`, refused with fatal() outside [lo, hi]: a
 * negative value must not wrap into a huge unsigned one.
 */
uint64_t
optionInRange(const OptionParser &opts, const std::string &name,
              int64_t lo, uint64_t hi)
{
    const int64_t v = opts.getInt(name);
    if (v < lo || static_cast<uint64_t>(v) > hi)
        fatal("--", name, "=", v, " outside [", lo, ", ", hi, "]");
    return static_cast<uint64_t>(v);
}

int
runOne(const OptionParser &opts, const std::string &op)
{
    ServeRequest request;
    request.workload = opts.getString("workload");
    request.inputIdx =
        static_cast<uint32_t>(optionInRange(opts, "input", 0, kMaxU32));
    request.instructions =
        optionInRange(opts, "instructions", 1, kMaxI64);
    request.predictor = opts.getString("predictor");
    request.first = optionInRange(opts, "first", 0, kMaxI64);
    request.count = optionInRange(opts, "count", 0, kMaxI64);
    request.topK =
        static_cast<uint32_t>(optionInRange(opts, "top", 0, kMaxU32));
    request.deadlineMs = static_cast<uint32_t>(
        optionInRange(opts, "deadline-ms", 0, kMaxU32));

    if (op == "ping") {
        request.type = MessageType::Ping;
    } else if (op == "simulate") {
        request.type = MessageType::Simulate;
    } else if (op == "branch-stats") {
        request.type = MessageType::BranchStats;
    } else if (op == "materialize") {
        request.type = MessageType::Materialize;
    } else {
        fatal("unknown --op \"", op,
              "\" (want ping|simulate|branch-stats|materialize|stats|"
              "loadgen)");
    }

    ServeClient client;
    Status st = client.connectUnix(opts.getString("socket"));
    if (!st.ok()) {
        warn("bpnsp_client: ", st.str());
        return 1;
    }
    ServeReply reply;
    st = client.call(request, &reply);
    if (!st.ok()) {
        warn("bpnsp_client: ", st.str());
        return 1;
    }
    if (reply.code != WireCode::Ok) {
        std::printf("%s: %s\n", wireCodeName(reply.code),
                    reply.message.c_str());
        return 1;
    }

    switch (reply.type) {
      case MessageType::PingReply:
        std::printf("pong: %s\n", reply.serverInfo.c_str());
        break;
      case MessageType::SimulateReply:
        std::printf("simulate %s/%s: %llu records, %llu cond execs, "
                    "%llu mispredicts, accuracy %.6f\n",
                    request.workload.c_str(),
                    request.predictor.c_str(),
                    static_cast<unsigned long long>(reply.delivered),
                    static_cast<unsigned long long>(reply.condExecs),
                    static_cast<unsigned long long>(
                        reply.condMispreds),
                    bitsDouble(reply.accuracyBits));
        break;
      case MessageType::BranchStatsReply:
        std::printf("branch stats %s/%s: %llu records, %llu cond "
                    "execs, %llu mispredicts, %zu branch row(s)\n",
                    request.workload.c_str(),
                    request.predictor.c_str(),
                    static_cast<unsigned long long>(reply.delivered),
                    static_cast<unsigned long long>(reply.condExecs),
                    static_cast<unsigned long long>(
                        reply.condMispreds),
                    reply.branches.size());
        for (const BranchRow &row : reply.branches)
            std::printf("  ip=0x%llx execs=%llu mispreds=%llu "
                        "taken=%llu\n",
                        static_cast<unsigned long long>(row.ip),
                        static_cast<unsigned long long>(row.execs),
                        static_cast<unsigned long long>(row.mispreds),
                        static_cast<unsigned long long>(row.taken));
        // Target columns: the server sends the per-class block in the
        // analysis layer's stable class order (Call, Ret, JumpInd,
        // CallInd); print it as received so output is byte-stable
        // across runs.
        for (const TargetClassStat &row : reply.targetClasses)
            std::printf("  target-class %s: execs=%llu "
                        "target-mispreds=%llu\n",
                        instrClassName(
                            static_cast<InstrClass>(row.cls)),
                        static_cast<unsigned long long>(row.execs),
                        static_cast<unsigned long long>(
                            row.targetMispreds));
        break;
      case MessageType::MaterializeReply:
        std::printf("materialized %s input %u: digest %s, %llu "
                    "records at %s\n",
                    request.workload.c_str(), request.inputIdx,
                    reply.digest.c_str(),
                    static_cast<unsigned long long>(reply.records),
                    reply.path.c_str());
        break;
      default:
        std::printf("unexpected reply type %s\n",
                    messageTypeName(reply.type));
        return 1;
    }
    return 0;
}

/** "123456789" -> "123,456,789" (stats tables only). */
std::string
withThousands(uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    const size_t n = digits.size();
    for (size_t i = 0; i < n; ++i) {
        if (i != 0 && (n - i) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

/** One quantile cell: ns as a human latency, "-" when null. */
std::string
quantileCell(const JsonValue &hist, const char *key)
{
    const JsonValue &v = hist.get(key);
    if (!v.isNumber())
        return "-";
    const double ns = v.asDouble();
    char buf[32];
    if (ns >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
    else if (ns >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0fns", ns);
    return buf;
}

/**
 * Render one bpnsp-stats-v1 document for a terminal. Parse failures
 * degrade to printing the raw JSON: a newer server must stay
 * inspectable from an older client.
 */
void
printStatsPretty(const std::string &json)
{
    JsonValue doc;
    if (!JsonValue::parse(json, &doc).ok() || !doc.isObject()) {
        std::fputs(json.c_str(), stdout);
        return;
    }
    std::printf("%s  git %s  wall %.1fs\n",
                doc.get("schema").asString().c_str(),
                doc.get("git").asString().c_str(),
                doc.get("wall_seconds").asDouble());

    std::printf("counters:\n");
    for (const auto &[name, value] : doc.get("counters").members())
        std::printf("  %-32s %s\n", name.c_str(),
                    withThousands(value.asUint()).c_str());

    if (!doc.get("gauges").members().empty()) {
        std::printf("gauges:\n");
        for (const auto &[name, value] : doc.get("gauges").members())
            std::printf("  %-32s %.6g\n", name.c_str(),
                        value.asDouble());
    }

    if (!doc.get("histograms").members().empty()) {
        std::printf("histograms:%*s count      p50      p90      p99"
                    "     p999\n",
                    24, "");
        for (const auto &[name, h] : doc.get("histograms").members())
            std::printf("  %-32s %7llu %8s %8s %8s %8s\n", name.c_str(),
                        static_cast<unsigned long long>(
                            h.get("count").asUint()),
                        quantileCell(h, "p50").c_str(),
                        quantileCell(h, "p90").c_str(),
                        quantileCell(h, "p99").c_str(),
                        quantileCell(h, "p999").c_str());
    }
}

/**
 * --op=stats: pull the live snapshot once, or poll it with --watch.
 * --raw prints the JSON document verbatim for scripts.
 *
 * A watch is a monitoring loop, so a daemon restart mid-watch must
 * not kill it: on a failed poll the watch backs off (capped) and polls
 * again, and ServeClient::call() reconnects to the remembered socket
 * path first. One-shot mode (no --watch) keeps strict fail-fast
 * semantics for scripts.
 */
int
runStats(const OptionParser &opts)
{
    const bool raw = opts.getFlag("raw");
    const bool watch = opts.getFlag("watch");
    const int64_t watchMs = opts.getInt("watch-ms");

    // A failed connect still remembers the path, so the first stats()
    // retries it and reports its error.
    ServeClient client;
    (void)client.connectUnix(opts.getString("socket"));

    uint64_t reconnectBackoffMs = 0;
    for (;;) {
        std::string json;
        const Status st = client.stats(&json);
        if (!st.ok()) {
            if (!watch) {
                warn("bpnsp_client: ", st.str());
                return 1;
            }
            // Daemon gone (restart, crash, drain): back off, then poll
            // again. The watch outlives the daemon.
            reconnectBackoffMs =
                reconnectBackoffMs == 0
                    ? 100
                    : std::min<uint64_t>(reconnectBackoffMs * 2, 2000);
            warn("bpnsp_client: ", st.str(), "; reconnecting in ",
                 reconnectBackoffMs, " ms");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(reconnectBackoffMs));
            continue;
        }
        reconnectBackoffMs = 0;
        if (raw)
            std::fputs(json.c_str(), stdout);
        else
            printStatsPretty(json);
        std::fflush(stdout);
        if (!watch)
            return 0;
        std::printf("\n");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(watchMs > 0 ? watchMs : 1000));
    }
}

int
runLoad(const OptionParser &opts)
{
    LoadGenConfig cfg;
    cfg.socketPath = opts.getString("socket");
    cfg.clients = static_cast<unsigned>(
        optionInRange(opts, "clients", 1, kMaxLoadGenClients));
    cfg.requestsPerClient = static_cast<unsigned>(
        optionInRange(opts, "requests", 1, kMaxLoadGenRequests));
    cfg.workload = opts.getString("workload");
    cfg.inputIdx =
        static_cast<uint32_t>(optionInRange(opts, "input", 0, kMaxU32));
    cfg.instructions = optionInRange(opts, "instructions", 1, kMaxI64);
    cfg.predictors = splitCsv(opts.getString("predictor"));
    if (cfg.predictors.empty())
        cfg.predictors = {"gshare"};
    cfg.sliceRecords = optionInRange(opts, "count", 0, kMaxI64);
    cfg.killProb = opts.getDouble("kill-prob");
    cfg.seed = static_cast<uint64_t>(opts.getInt("seed"));
    cfg.verify = opts.getFlag("verify");
    cfg.deadlineMs = static_cast<uint32_t>(
        optionInRange(opts, "deadline-ms", 0, kMaxU32));

    LoadGenResult result;
    if (const Status st = runLoadGen(cfg, &result); !st.ok())
        fatal("bpnsp_client: ", st.str());
    std::printf(
        "loadgen: %u client(s) x %u request(s): %llu ok, %llu "
        "rejected, %llu expired, %llu error(s), %llu transport, %llu killed, %llu "
        "mismatch(es) in %.2fs (%.0f req/s, p50 %.2fms, p99 %.2fms)\n",
        cfg.clients, cfg.requestsPerClient,
        static_cast<unsigned long long>(result.ok),
        static_cast<unsigned long long>(result.rejected),
        static_cast<unsigned long long>(result.expired),
        static_cast<unsigned long long>(result.errors),
        static_cast<unsigned long long>(result.transport),
        static_cast<unsigned long long>(result.killed),
        static_cast<unsigned long long>(result.mismatches),
        result.elapsedSeconds,
        result.requestsPerSecond(), result.p50Ms, result.p99Ms);

    if (result.mismatches != 0)
        return 1;
    // Kills close connections deliberately, so transport errors are
    // only fatal in a kill-free run.
    if (cfg.killProb == 0.0 && result.transport != 0)
        return 1;
    return result.ok == 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("Query a running bpnsp_served.");
    opts.addString("socket", "bpnsp_served.sock",
                   "server UNIX-domain socket path");
    opts.addString("op", "ping",
                   "ping|simulate|branch-stats|materialize|stats|loadgen");
    opts.addString("workload", "mcf_like", "workload name");
    opts.addInt("input", 0, "workload input index");
    opts.addInt("instructions", 200000, "trace length (cache key)");
    opts.addString("predictor", "gshare",
                   "predictor name (loadgen: comma-separated pool)");
    opts.addInt("first", 0, "simulate: slice start record");
    opts.addInt("count", 0,
                "simulate: slice record count (0 = to end; loadgen: "
                "random slice width, 0 = whole trace)");
    opts.addInt("top", 0, "branch-stats: top-K rows (0 = all)");
    opts.addFlag("watch", "stats: poll the snapshot until killed");
    opts.addInt("watch-ms", 1000, "stats: --watch poll period");
    opts.addFlag("raw", "stats: print the JSON document verbatim");
    opts.addInt("deadline-ms", 0, "per-request deadline (0 = none)");
    opts.addInt("clients", 4,
                "loadgen: concurrent clients, 1 to " +
                    std::to_string(kMaxLoadGenClients));
    opts.addInt("requests", 32,
                "loadgen: requests per client, 1 to " +
                    std::to_string(kMaxLoadGenRequests));
    opts.addDouble("kill-prob", 0.0,
                   "loadgen: P(vanish before reading the reply)");
    opts.addInt("seed", 1, "loadgen: randomization seed");
    opts.addFlag("verify",
                 "loadgen: check every Ok Simulate reply bit-for-bit "
                 "against the same slice of a VM run in this process");
    opts.parse(argc, argv);

    const std::string op = opts.getString("op");
    if (op == "loadgen")
        return runLoad(opts);
    if (op == "stats")
        return runStats(opts);
    return runOne(opts, op);
}
