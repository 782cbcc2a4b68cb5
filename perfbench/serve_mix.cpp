/**
 * @file
 * serve_mix: one single-process bpnsp_served answering a closed-loop
 * mix over four pre-generated keys (SPEC-like and LCF-like), with one
 * dedicated connection per request class:
 *
 *  - batch: Simulate over seed-drawn 50K-record slices;
 *  - interactive: whole-trace BranchStats, top 4 rows.
 *
 * The request shapes are those of the repository's serve load
 * (scripts/serve_soak.sh and scripts/overload_soak.sh, through the
 * loadgen in serve/client.cpp); see the constants below. The daemon
 * runs two worker threads, so workers plus client connections stay
 * within four cores. The corpus directory lives in the run directory
 * and is fully generated (and its decoded chunks cached) during
 * set-up, so the window writes nothing.
 *
 * Also here: the daemon plumbing shared with the other workloads'
 * serving ledger (serve.hpp).
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <thread>

#include "bench.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "analysis/target_stats.hpp"
#include "frontend/frontend.hpp"
#include "ledger.hpp"
#include "serve.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/chunk_cache.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace bpnsp;
using namespace bpnsp::serve;

namespace {

/** Records of a Simulate slice (serve_soak.sh --count=50000). */
constexpr uint64_t kSliceRecords = 50000;

/** BranchStats rows (the loadgen's interactive request). */
constexpr uint32_t kTopK = 4;

} // namespace

// --- Daemon -------------------------------------------------------------

Daemon::~Daemon() { stop(); }

Status
Daemon::start(const std::string &binary, const std::string &corpus,
              const std::string &socket, unsigned threads,
              const std::string &log)
{
    std::vector<std::string> args{
        binary,
        "--socket=" + socket,
        "--trace-cache=" + corpus,
        "--threads=" + std::to_string(threads),
        "--chunk-cache-mb=64",   // the daemon's default
        // A safety net: the daemon exits on its own even if this
        // process dies before stopping it.
        "--max-seconds=170",
    };
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    child = ::fork();
    if (child < 0)
        return Status::ioError(std::string("fork: ") + std::strerror(errno));
    if (child == 0) {
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(binary.c_str(), argv.data());
        ::_exit(127);
    }

    const auto t0 = Clock::now();
    while (secondsSince(t0) < 30.0) {
        int status = 0;
        if (::waitpid(child, &status, WNOHANG) == child) {
            child = -1;
            return Status::ioError("bpnsp_served exited during start-up; "
                                   "see " + log);
        }
        ServeClient probe;
        std::string info;
        if (probe.connectUnix(socket).ok() && probe.ping(&info).ok())
            return Status();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop();
    return Status::ioError("bpnsp_served did not answer within 30 s");
}

void
Daemon::stop()
{
    if (child <= 0)
        return;
    ::kill(child, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(child, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 10.0) {
            ::kill(child, SIGKILL);
            ::waitpid(child, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    child = -1;
}

// --- requests, counters, in-process answers -----------------------------

Status
readServeCounters(ServeClient &client, ServeCounters *out)
{
    std::string text;
    Status st = client.stats(&text);
    if (!st.ok())
        return st;
    JsonValue doc;
    st = JsonValue::parse(text, &doc);
    if (!st.ok())
        return st;
    const JsonValue &c = doc.get("counters");
    out->chunkHits = c.get("tracestore.chunk_cache.hits").asUint();
    out->chunkMisses = c.get("tracestore.chunk_cache.misses").asUint();
    out->accepted = c.get("serve.accepted").asUint();
    out->batches = c.get("serve.batches").asUint();
    return Status();
}

ServeRequest
simulateRequest(const std::string &workload, uint32_t input,
                uint64_t instructions, const std::string &predictor,
                uint64_t first, uint64_t count)
{
    ServeRequest r;
    r.type = MessageType::Simulate;
    r.workload = workload;
    r.inputIdx = input;
    r.instructions = instructions;
    r.predictor = predictor;
    r.first = first;
    r.count = count;
    return r;
}

ServeRequest
branchStatsRequest(const std::string &workload, uint32_t input,
                   uint64_t instructions, const std::string &predictor,
                   uint64_t slice_length, uint32_t top_k)
{
    ServeRequest r;
    r.type = MessageType::BranchStats;
    r.workload = workload;
    r.inputIdx = input;
    r.instructions = instructions;
    r.predictor = predictor;
    r.sliceLength = slice_length;
    r.topK = top_k;
    return r;
}

const TraceStoreReader &
InProcessServer::reader(const ServeRequest &request)
{
    const Workload w = findWorkload(request.workload);
    const WorkloadInput &in = w.inputs.at(request.inputIdx);
    const std::string path =
        corpus + "/" +
        traceCacheDigest({w.name, in.label, in.seed,
                          request.instructions}) +
        ".bpt";
    auto &slot = readers[path];
    if (slot == nullptr) {
        Status st;
        slot = TraceStoreReader::open(path, &st);
        if (slot == nullptr)
            fatal("perfbench: cannot open corpus entry ", path, ": ",
                  st.str());
    }
    return *slot;
}

double
InProcessServer::executeMs(const ServeRequest &request, ServeReply *reply)
{
    const TraceStoreReader &store = reader(request);
    const std::unique_ptr<BranchPredictor> bp =
        makePredictor(request.predictor);
    *reply = ServeReply();
    reply->code = WireCode::Ok;
    const auto t0 = Clock::now();
    if (request.type == MessageType::Simulate) {
        reply->type = MessageType::SimulateReply;
        const uint64_t count = request.count == 0
                                   ? store.count() - request.first
                                   : request.count;
        PredictorSim sim(*bp, /*collect_per_branch=*/false);
        FanoutSink fanout({&sim});
        if (!store.replayRange(request.first, count, fanout).ok())
            fatal("perfbench: in-process replay failed");
        fanout.onEnd();
        reply->delivered = count;
        reply->condExecs = sim.condExecs();
        reply->condMispreds = sim.condMispreds();
        reply->accuracyBits = doubleBits(sim.accuracy());
    } else {
        reply->type = MessageType::BranchStatsReply;
        PredictorSim sim(*bp, /*collect_per_branch=*/true);
        FrontendModel fe((FrontendConfig()));
        FanoutSink fanout({&sim, &fe});
        if (!store.replay(fanout, 0).ok())
            fatal("perfbench: in-process replay failed");
        reply->delivered = sim.instructions();
        reply->condExecs = sim.condExecs();
        reply->condMispreds = sim.condMispreds();
        for (const TargetClassRow &row : targetClassRows(fe))
            reply->targetClasses.push_back(
                {static_cast<uint8_t>(row.cls), row.execs,
                 row.targetMispreds});
        for (const auto &[ip, c] : sim.perBranch())
            reply->branches.push_back({ip, c.execs, c.mispreds, c.taken});
        std::sort(reply->branches.begin(), reply->branches.end(),
                  [](const BranchRow &a, const BranchRow &b) {
                      if (a.mispreds != b.mispreds)
                          return a.mispreds > b.mispreds;
                      return a.ip < b.ip;
                  });
        if (request.topK != 0 && reply->branches.size() > request.topK)
            reply->branches.resize(request.topK);
    }
    return secondsSince(t0) * 1e3;
}

const ServeReply &
InProcessServer::expected(const ServeRequest &request)
{
    const Key key{static_cast<uint16_t>(request.type), request.workload,
                  request.inputIdx, request.instructions, request.predictor,
                  request.first, request.count, request.topK};
    auto it = memo.find(key);
    if (it == memo.end()) {
        ServeReply reply;
        executeMs(request, &reply);
        it = memo.emplace(key, std::move(reply)).first;
    }
    return it->second;
}

bool
sameResults(const ServeReply &got, const ServeReply &want)
{
    auto sameRow = [](const BranchRow &a, const BranchRow &b) {
        return a.ip == b.ip && a.execs == b.execs &&
               a.mispreds == b.mispreds && a.taken == b.taken;
    };
    auto sameClass = [](const TargetClassStat &a, const TargetClassStat &b) {
        return a.cls == b.cls && a.execs == b.execs &&
               a.targetMispreds == b.targetMispreds;
    };
    return got.code == WireCode::Ok && got.type == want.type &&
           got.delivered == want.delivered &&
           got.condExecs == want.condExecs &&
           got.condMispreds == want.condMispreds &&
           got.accuracyBits == want.accuracyBits &&
           std::equal(got.branches.begin(), got.branches.end(),
                      want.branches.begin(), want.branches.end(), sameRow) &&
           std::equal(got.targetClasses.begin(), got.targetClasses.end(),
                      want.targetClasses.begin(), want.targetClasses.end(),
                      sameClass);
}

ServeLayerSplit
probeServeLayer(ServeClient &client, InProcessServer &local,
                const std::vector<ServeRequest> &requests,
                uint64_t *failed)
{
    std::vector<double> clientMs;
    std::vector<double> execMs;
    for (const ServeRequest &req : requests) {
        const ServeReply &want = local.expected(req);
        ServeReply got;
        const auto t0 = Clock::now();
        const Status st = client.call(req, &got);
        clientMs.push_back(secondsSince(t0) * 1e3);
        if (!st.ok() || !sameResults(got, want))
            ++*failed;
        ServeReply again;
        execMs.push_back(local.executeMs(req, &again));
    }
    ServeLayerSplit split;
    split.execMs = median(execMs);
    split.overheadMs = median(clientMs) - split.execMs;
    split.samples = requests.size();
    return split;
}

namespace {

constexpr const char *kSocket = "serve.sock";
constexpr const char *kCorpus = "corpus";
constexpr const char *kDaemonLog = "served.log";

/** Decoded chunks the in-process server may keep (as the daemon). */
constexpr size_t kChunkCacheBytes = 64u << 20;

/** Counter growth from `before` to `after`. */
ServeCounters
growth(const ServeCounters &before, const ServeCounters &after)
{
    return {after.chunkHits - before.chunkHits,
            after.chunkMisses - before.chunkMisses,
            after.accepted - before.accepted,
            after.batches - before.batches};
}

/**
 * Serving-layer entries: the execution/overhead split of each class,
 * and the chunk-cache and batching ratios from the daemon's counter
 * growth over a stretch in which `interactive_sent` BranchStats were
 * accepted besides the Simulates.
 */
void
putServeLayers(const ServeLayerSplit &batch,
               const ServeLayerSplit &interactive, const ServeCounters &d,
               uint64_t interactive_sent, Ledger *ledger)
{
    ledger->put("serve.batch.exec_ms", batch.execMs, "ms", batch.samples);
    ledger->put("serve.batch.overhead_ms", batch.overheadMs, "ms",
                batch.samples);
    ledger->put("serve.interactive.exec_ms", interactive.execMs, "ms",
                interactive.samples);
    ledger->put("serve.interactive.overhead_ms", interactive.overheadMs,
                "ms", interactive.samples);
    const uint64_t lookups = d.chunkHits + d.chunkMisses;
    ledger->put("tracestore.chunk_cache.hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(d.chunkHits) /
                                   static_cast<double>(lookups),
                "fraction", lookups);
    ledger->put("serve.requests_per_batch",
                d.batches == 0
                    ? 0.0
                    : static_cast<double>(d.accepted - interactive_sent) /
                          static_cast<double>(d.batches),
                "count", d.batches);
}

/** Count failed or mismatched probe replies, with one message. */
void
noteProbeFailures(uint64_t bad, RunResult *result)
{
    if (bad != 0)
        result->mismatch("serving probe: " + std::to_string(bad) +
                             " replies failed or differ from in-process "
                             "runs",
                         bad);
}

} // namespace

void
measureServeLedger(const RunConfig &cfg, const LedgerInput &input,
                   Ledger *ledger, RunResult *result)
{
    constexpr unsigned kProbeRequests = 40;

    std::filesystem::remove_all(kCorpus);
    Daemon daemon;
    Status st = daemon.start(cfg.served, kCorpus, kSocket, 1, kDaemonLog);
    ServeClient client;
    if (st.ok())
        st = client.connectUnix(kSocket);
    if (!st.ok())
        fatal("perfbench: serving ledger: ", st.str());

    const uint32_t idx = static_cast<uint32_t>(input.inputIdx);
    const uint64_t n = input.instructions;
    const uint64_t slice = std::min(n, kSliceRecords);
    // Warm-up: generate the key and fill the chunk cache.
    ServeReply warm;
    if (!client.call(simulateRequest(input.workload, idx, n,
                                     "tage-sc-l-8KB", 0, 0),
                     &warm)
             .ok() ||
        warm.code != WireCode::Ok)
        fatal("perfbench: serving ledger warm-up failed");

    Rng rng = Rng::stream(cfg.seed, 0x5e7e);
    std::vector<ServeRequest> sims;
    std::vector<ServeRequest> stats;
    for (unsigned i = 0; i < kProbeRequests; ++i) {
        sims.push_back(simulateRequest(input.workload, idx, n,
                                       "tage-sc-l-8KB",
                                       rng.below(n - slice + 1), slice));
        stats.push_back(branchStatsRequest(input.workload, idx, n,
                                           "gshare", 0, kTopK));
    }

    DecodedChunkCache::instance().setCapacityBytes(kChunkCacheBytes);
    InProcessServer local(kCorpus);
    ServeCounters before, after;
    if (!readServeCounters(client, &before).ok())
        fatal("perfbench: cannot read the daemon's counters");
    uint64_t bad = 0;
    const ServeLayerSplit b = probeServeLayer(client, local, sims, &bad);
    const ServeLayerSplit i = probeServeLayer(client, local, stats, &bad);
    if (!readServeCounters(client, &after).ok())
        fatal("perfbench: cannot read the daemon's counters");
    result->attempted += sims.size() + stats.size();
    noteProbeFailures(bad, result);
    putServeLayers(b, i, growth(before, after), stats.size(), ledger);
    client.close();
    daemon.stop();
    std::filesystem::remove_all(kCorpus);
}

// --- serve_mix workload ---------------------------------------------------

namespace {

/**
 * The keys: the soak scripts' mcf_like, plus the workload each batch
 * workload measures: gcc_like (LCF, ipc_sweep), perlbench_like
 * (characterize) and xz_like (trace_replay). Each is input 0 at the
 * soaks' 200 000 records (--instructions=200000).
 */
const char *const kKeys[] = {"mcf_like", "gcc_like", "perlbench_like",
                             "xz_like"};
constexpr uint64_t kKeyRecords = 200000;

/**
 * Predictors per class. Batch uses gshare and tage-sc-l-8KB equally
 * often, as the loadgen draws each request's predictor uniformly from
 * its list. Interactive uses gshare, as overload_soak.sh's interactive
 * traffic does (--predictor=gshare).
 */
const char *const kBatchPredictors[] = {"gshare", "tage-sc-l-8KB"};
const char *const kInteractivePredictors[] = {"gshare"};

/** Samples a class needs before its percentile is reported. */
constexpr size_t kMinBatch = 1000;       // p99
constexpr size_t kMinInteractive = 100;  // p90

/** One request of the window, as sent and as answered. */
struct Sample
{
    ServeRequest request;
    ServeReply reply;
    size_t cell = 0;   ///< index into the class's cycle
    double ms = 0.0;
    bool ok = false;
};

/**
 * One class's closed loop over a dedicated connection. Where the
 * loadgen draws key and predictor per request, the class visits every
 * (key, predictor) cell once per cycle, in an order shuffled by the
 * seeded stream. Every window then holds the same proportions, and no
 * percentile lands between two request costs by chance. Simulate
 * slices start at a uniform record offset, as the loadgen's do.
 */
class ClassLoop
{
  public:
    ClassLoop(bool batch, uint64_t seed, uint64_t stream)
        : isBatch(batch), rng(Rng::stream(seed, stream))
    {
    }

    /**
     * Samples the class needs for its percentiles: its own, and the
     * quantile of every cell.
     */
    size_t
    minSamples() const
    {
        return std::max(isBatch ? kMinBatch : kMinInteractive,
                        kMinCellSamples * cellCount());
    }

    /**
     * Run until `deadline`, and on until `need` samples and a whole
     * cycle are done (capped at `cap`).
     */
    void
    run(Clock::time_point deadline, Clock::time_point cap, size_t need,
        bool trace)
    {
        ServeClient client;
        if (!client.connectUnix(kSocket).ok()) {
            connectFailed = true;
            return;
        }
        while (Clock::now() < cap &&
               (Clock::now() < deadline || samples.size() < need ||
                !cycle.empty())) {
            Sample s;
            s.cell = next();
            s.request = requestFor(s.cell);
            const auto t0 = Clock::now();
            const Status st = client.call(s.request, &s.reply);
            const auto t1 = Clock::now();
            s.ms = std::chrono::duration<double, std::milli>(t1 - t0)
                       .count();
            s.ok = st.ok() && s.reply.code == WireCode::Ok;
            if (trace)
                spans.record(isBatch ? "serve.client.simulate"
                                     : "serve.client.branch_stats",
                             t0, t1);
            samples.push_back(std::move(s));
        }
    }

    /** Ok latencies (seconds) per cell, with each cell's records. */
    void
    addCells(std::vector<Cell> *cells) const
    {
        std::vector<Cell> mine(cellCount());
        for (Cell &c : mine)
            c.instructions = static_cast<double>(
                isBatch ? kSliceRecords : kKeyRecords);
        for (const Sample &s : samples)
            if (s.ok)
                mine[s.cell].seconds.push_back(s.ms / 1e3);
        cells->insert(cells->end(), mine.begin(), mine.end());
    }

    std::vector<Sample> samples;
    SpanLog spans;
    bool connectFailed = false;

  private:
    /** Predictors of the class; cell = key * predictors + predictor. */
    std::vector<const char *>
    predictors() const
    {
        if (isBatch)
            return {std::begin(kBatchPredictors), std::end(kBatchPredictors)};
        return {std::begin(kInteractivePredictors),
                std::end(kInteractivePredictors)};
    }

    size_t cellCount() const { return std::size(kKeys) * predictors().size(); }

    size_t
    next()
    {
        if (cycle.empty()) {
            for (size_t c = 0; c < cellCount(); ++c)
                cycle.push_back(c);
            for (size_t i = cycle.size(); i > 1; --i)
                std::swap(cycle[i - 1], cycle[rng.below(i)]);
        }
        const size_t cell = cycle.back();
        cycle.pop_back();
        return cell;
    }

    ServeRequest
    requestFor(size_t cell)
    {
        const std::vector<const char *> p = predictors();
        const char *workload = kKeys[cell / p.size()];
        const char *predictor = p[cell % p.size()];
        if (!isBatch)
            return branchStatsRequest(workload, 0, kKeyRecords, predictor,
                                      0, kTopK);
        return simulateRequest(workload, 0, kKeyRecords, predictor,
                               rng.below(kKeyRecords - kSliceRecords + 1),
                               kSliceRecords);
    }

    bool isBatch;
    Rng rng;
    std::vector<size_t> cycle;
};

/** Result of one window: both loops plus the daemon's counter deltas. */
struct Window
{
    ClassLoop batch;
    ClassLoop interactive;
    ServeCounters before, after;
    double seconds = 0.0;
};

/**
 * Run both class loops for `seconds` against the running daemon; with
 * `full`, on until each class has its minimum sample count.
 */
void
runWindow(Window &w, ServeClient &control, double seconds, bool full,
          bool trace)
{
    if (!readServeCounters(control, &w.before).ok())
        fatal("perfbench: cannot read the daemon's counters");
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    const auto cap = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(4 * seconds));
    std::thread b([&] {
        w.batch.run(deadline, cap, full ? w.batch.minSamples() : 0, trace);
    });
    std::thread i([&] {
        w.interactive.run(deadline, cap,
                          full ? w.interactive.minSamples() : 0, trace);
    });
    b.join();
    i.join();
    w.seconds = secondsSince(t0);
    if (!readServeCounters(control, &w.after).ok())
        fatal("perfbench: cannot read the daemon's counters");
}

/**
 * Count the window's requests and check their replies: every
 * BranchStats reply (4 distinct requests, memoized), and a seed-drawn
 * sample of kCheckedSlices Simulate replies. Each slice offset is a
 * request of its own, so checking every one would cost more than the
 * window.
 */
void
checkWindow(const Window &w, InProcessServer &local, uint64_t seed,
            RunResult *result)
{
    constexpr size_t kCheckedSlices = 256;
    if (w.batch.connectFailed || w.interactive.connectFailed)
        result->mismatch("serve_mix: a class connection failed");
    std::vector<const Sample *> check;
    for (const ClassLoop *loop : {&w.batch, &w.interactive})
        for (const Sample &s : loop->samples) {
            ++result->attempted;
            if (!s.ok)
                ++result->failed;
            else if (loop == &w.interactive)
                check.push_back(&s);
        }
    std::vector<const Sample *> slices;
    for (const Sample &s : w.batch.samples)
        if (s.ok)
            slices.push_back(&s);
    Rng rng = Rng::stream(seed, 0xc4ec);
    for (size_t i = 0; i < slices.size() && i < kCheckedSlices; ++i) {
        std::swap(slices[i], slices[i + rng.below(slices.size() - i)]);
        check.push_back(slices[i]);
    }
    uint64_t bad = 0;
    for (const Sample *s : check)
        if (!sameResults(s->reply, local.expected(s->request)))
            ++bad;
    if (bad != 0)
        result->mismatch("serve_mix: " + std::to_string(bad) +
                             " replies differ from in-process runs",
                         bad);
}

std::vector<double>
okLatencies(const ClassLoop &loop)
{
    std::vector<double> ms;
    for (const Sample &s : loop.samples)
        if (s.ok)
            ms.push_back(s.ms);
    return ms;
}

uint64_t
okRecords(const Window &w)
{
    uint64_t records = 0;
    for (const ClassLoop *loop : {&w.batch, &w.interactive})
        for (const Sample &s : loop->samples)
            if (s.ok)
                records += s.reply.delivered;
    return records;
}

uint64_t
okReplies(const Window &w)
{
    return okLatencies(w.batch).size() + okLatencies(w.interactive).size();
}

/** Start the daemon and answer every key once; returns seconds. */
double
setUp(Daemon &daemon, const RunConfig &cfg, ServeClient &control)
{
    control.close();
    daemon.stop();
    std::filesystem::remove_all(kCorpus);
    const auto t0 = Clock::now();
    Status st = daemon.start(cfg.served, kCorpus, kSocket, 2, kDaemonLog);
    if (st.ok())
        st = control.connectUnix(kSocket);
    if (!st.ok())
        fatal("perfbench: serve_mix set-up: ", st.str());
    // A whole-trace Simulate per key generates it and fills the chunk
    // cache.
    for (const char *key : kKeys) {
        ServeReply reply;
        if (!control
                 .call(simulateRequest(key, 0, kKeyRecords, "gshare", 0, 0),
                       &reply)
                 .ok() ||
            reply.code != WireCode::Ok)
            fatal("perfbench: serve_mix warm-up request failed");
    }
    return secondsSince(t0);
}

} // namespace

RunResult
runServeMix(const RunConfig &cfg)
{
    RunResult result;
    Daemon daemon;
    ServeClient control;
    std::vector<double> setup;
    for (int i = 0; i < (cfg.trace ? 1 : kSetupRepeats); ++i)
        setup.push_back(setUp(daemon, cfg, control));

    DecodedChunkCache::instance().setCapacityBytes(kChunkCacheBytes);
    InProcessServer local(kCorpus);

    if (!cfg.trace) {
        Window w{ClassLoop(true, cfg.seed, 1), ClassLoop(false, cfg.seed, 2),
                 {}, {}, 0.0};
        runWindow(w, control, cfg.seconds, true, false);
        const double rssMb = peakRssMb(daemon.pid());
        checkWindow(w, local, cfg.seed, &result);
        std::vector<Cell> cells;
        w.batch.addCells(&cells);
        w.interactive.addCells(&cells);
        const std::vector<double> batch = okLatencies(w.batch);
        const std::vector<double> inter = okLatencies(w.interactive);
        const double minstr = mixMinstrPerSecond(cells);
        if (batch.size() < kMinBatch || inter.size() < kMinInteractive ||
            minstr == 0.0)
            result.mismatch("serve_mix: too few samples for percentiles");
        const uint64_t ok = okReplies(w);
        const uint64_t nb = batch.size();
        const uint64_t ni = inter.size();
        result.add("minstr_per_s", minstr, "Minstr/s", ok);
        result.add("setup_s", percentile(setup, kSetupQuantile), "s",
                   setup.size());
        result.add("peak_rss_mb", rssMb, "MiB", 1);
        result.extra = {
            {"batch_p50_ms", percentile(batch, 0.5), "ms", nb},
            {"batch_p99_ms", percentile(batch, 0.99), "ms", nb},
            {"interactive_p50_ms", percentile(inter, 0.5), "ms", ni},
            {"interactive_p90_ms", percentile(inter, 0.9), "ms", ni},
            {"req_per_s", static_cast<double>(ok) / w.seconds, "req/s", ok},
            {"window_minstr_per_s",
             static_cast<double>(okRecords(w)) / w.seconds / 1e6,
             "Minstr/s", ok},
        };
        control.close();
        daemon.stop();
        return result;
    }

    // Traced run: four quarter windows, alternately plain and with
    // client spans (so host drift cancels out of the overhead), then
    // the serving split probed one request at a time and the
    // in-process ledger over the first key.
    std::vector<Window> phases;
    for (uint64_t k = 0; k < 4; ++k) {
        phases.push_back({ClassLoop(true, cfg.seed, 2 * k + 1),
                          ClassLoop(false, cfg.seed, 2 * k + 2), {}, {},
                          0.0});
        runWindow(phases.back(), control, cfg.seconds / 4, false,
                  k % 2 == 1);
        checkWindow(phases.back(), local, cfg.seed + k, &result);
    }

    Rng rng = Rng::stream(cfg.seed, 5);
    std::vector<ServeRequest> sims;
    std::vector<ServeRequest> stats;
    for (int i = 0; i < 40; ++i) {
        sims.push_back(simulateRequest(
            kKeys[0], 0, kKeyRecords, "tage-sc-l-8KB",
            rng.below(kKeyRecords - kSliceRecords + 1), kSliceRecords));
        stats.push_back(branchStatsRequest(kKeys[0], 0, kKeyRecords,
                                           "gshare", 0, kTopK));
    }
    uint64_t bad = 0;
    const ServeLayerSplit b = probeServeLayer(control, local, sims, &bad);
    const ServeLayerSplit in = probeServeLayer(control, local, stats, &bad);
    result.attempted += sims.size() + stats.size();
    noteProbeFailures(bad, &result);

    Ledger ledger =
        measureLedger({kKeys[0], 0, kKeyRecords, kSliceRecords});
    const double frameMs = ledger.at("serve.protocol.ns_per_frame") / 1e6;

    // Modelled busy time of the traced windows: every Ok reply costs
    // its cell's in-process execution (the median of up to five of
    // the cell's requests) plus its two frames, over both workers.
    std::map<std::pair<int, size_t>, std::vector<const Sample *>> byCell;
    double seconds[2] = {0.0, 0.0};
    uint64_t replies[2] = {0, 0};
    ServeCounters traced;
    uint64_t tracedStats = 0;
    for (size_t k = 0; k < phases.size(); ++k) {
        const Window &w = phases[k];
        seconds[k % 2] += w.seconds;
        replies[k % 2] += okReplies(w);
        if (k % 2 == 0)
            continue;
        const ServeCounters d = growth(w.before, w.after);
        traced = {traced.chunkHits + d.chunkHits,
                  traced.chunkMisses + d.chunkMisses,
                  traced.accepted + d.accepted, traced.batches + d.batches};
        tracedStats += w.interactive.samples.size();
        for (int cls = 0; cls < 2; ++cls)
            for (const Sample &s :
                 (cls == 0 ? w.batch : w.interactive).samples)
                if (s.ok)
                    byCell[{cls, s.cell}].push_back(&s);
    }
    double modelledMs = 0.0;
    for (const auto &[cell, samples] : byCell) {
        std::vector<double> ms;
        for (size_t i = 0; i < samples.size() && i < 5; ++i) {
            ServeReply scratch;
            ms.push_back(local.executeMs(samples[i]->request, &scratch));
        }
        modelledMs +=
            static_cast<double>(samples.size()) * (median(ms) + 2 * frameMs);
    }
    putServeLayers(b, in, traced, tracedStats, &ledger);

    const double plainRate = static_cast<double>(replies[0]) / seconds[0];
    const double tracedRate = static_cast<double>(replies[1]) / seconds[1];
    reportLayers(ledger, modelledMs / (seconds[1] * 1e3 * 2),
                 1.0 - tracedRate / plainRate, &result);
    control.close();
    daemon.stop();
    return result;
}

} // namespace perfbench
