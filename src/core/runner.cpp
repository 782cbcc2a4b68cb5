#include "core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "bp/factory.hpp"
#include "obs/metrics.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/store.hpp"
#include "util/cancel.hpp"
#include "util/logging.hpp"
#include "vm/interpreter.hpp"

namespace bpnsp {

/**
 * Instructions delivered between cancellation polls of the VM path.
 * ~256K instructions is single-digit milliseconds of VM execution, so
 * deadlines and interrupts land promptly while the poll itself (one
 * relaxed atomic load, plus a clock read when a deadline is armed)
 * stays invisible in profiles.
 */
constexpr uint64_t kCancelCheckInterval = 1u << 18;

uint64_t
runTrace(const Program &program, const std::vector<TraceSink *> &sinks,
         uint64_t instructions)
{
    static obs::Counter &vmRuns = obs::counter("core.runner.vm_runs");
    static obs::Counter &delivered = obs::counter("run.instructions");
    static obs::Counter &cancelledRuns =
        obs::counter("core.runner.cancelled");
    static obs::Histogram &runTraceNs =
        obs::histogram("core.run_trace_ns");
    obs::ScopedTimer timer(runTraceNs);

    FanoutSink fanout;
    for (TraceSink *sink : sinks)
        fanout.add(sink);
    Interpreter interp(program);
    interp.setRestartOnHalt(true);

    // The delivery loop runs in cancellation-poll slices. A fired
    // token stops the run short — callers detect the early exit via
    // the return value and learn *why* from currentCancelToken();
    // onEnd() is still delivered so sinks flush what they saw.
    CancelToken *cancel = currentCancelToken();
    uint64_t executed = 0;
    while (executed < instructions) {
        if (cancel->cancelled()) {
            cancelledRuns.inc();
            break;
        }
        const uint64_t slice = std::min<uint64_t>(
            kCancelCheckInterval, instructions - executed);
        executed += interp.run(fanout, slice);
    }
    fanout.onEnd();
    vmRuns.inc();
    delivered.add(executed);
    return executed;
}

// --- trace cache wiring ----------------------------------------------

namespace {

std::mutex gCacheMutex;
std::unique_ptr<TraceCache> gCache;

/**
 * Run-manifest identity: the last workload executed describes the run
 * (single-workload binaries, the common case, get exact attribution;
 * sweeps get their final leg).
 */
void
recordRunIdentity(const Workload &workload, size_t input_idx,
                  uint64_t instructions)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.setRunField("workload", workload.name);
    reg.setRunField("input", workload.inputs.at(input_idx).label);
    reg.setRunField("instruction_budget", std::to_string(instructions));
}

/** The configured cache, or nullptr when caching is off. */
TraceCache *
activeCache()
{
    std::lock_guard<std::mutex> lock(gCacheMutex);
    return gCache.get();
}

/**
 * Replay a verified entry into the sinks. openVerified() checksummed
 * every chunk *before* any record is streamed, which is what makes
 * regeneration safe: a corrupt entry is rejected while the sinks are
 * still empty, so the live rerun never double-counts a partial replay.
 */
Status
replayVerified(const TraceStoreReader &reader,
               const std::vector<TraceSink *> &sinks)
{
    static obs::Counter &replayRuns =
        obs::counter("core.runner.replay_runs");
    static obs::Counter &delivered = obs::counter("run.instructions");
    static obs::Histogram &replayNs =
        obs::histogram("tracestore.replay_ns");

    obs::ScopedTimer timer(replayNs);
    FanoutSink fanout;
    for (TraceSink *sink : sinks)
        fanout.add(sink);
    const Status st = reader.replay(fanout, 0);
    if (!st.ok()) {
        if (st.code() == StatusCode::Cancelled ||
            st.code() == StatusCode::DeadlineExceeded) {
            // Cooperative cancellation mid-replay: the sinks saw a
            // prefix, but the run is being abandoned, so nobody will
            // consume their partial state. Report why and leave the
            // (healthy) entry alone.
            static obs::Counter &cancelledRuns =
                obs::counter("core.runner.cancelled");
            cancelledRuns.inc();
            return st;
        }
        // verify() passed moments ago, so reaching here means the
        // store changed under us mid-replay (active media failure or
        // an adversarial fault spec that skips the verify pass). The
        // sinks saw a partial stream, so regeneration would
        // double-count — the only honest exit is loud.
        fatal("trace cache replay failed mid-stream after a clean "
              "verify: ", st.str());
    }
    replayRuns.inc();
    delivered.add(reader.count());
    return Status();
}

} // namespace

void
setTraceCacheDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(gCacheMutex);
    gCache = dir.empty() ? nullptr : std::make_unique<TraceCache>(dir);
}

std::string
traceCacheDir()
{
    TraceCache *cache = activeCache();
    return cache != nullptr ? cache->dir() : std::string();
}

uint64_t
runWorkloadTrace(const Workload &workload, size_t input_idx,
                 const std::vector<TraceSink *> &sinks,
                 uint64_t instructions)
{
    static obs::Counter &hits = obs::counter("tracestore.cache.hits");
    static obs::Counter &misses =
        obs::counter("tracestore.cache.misses");
    static obs::Counter &degraded =
        obs::counter("core.runner.degraded_runs");

    recordRunIdentity(workload, input_idx, instructions);

    TraceCache *cache = activeCache();
    if (cache == nullptr)
        return runTrace(workload.build(input_idx), sinks, instructions);

    const WorkloadInput &input = workload.inputs.at(input_idx);
    const TraceCacheKey key{workload.name, input.label, input.seed,
                            instructions};
    if (cache->contains(key)) {
        Status why;
        const std::unique_ptr<TraceStoreReader> reader =
            cache->openVerified(key, &why);
        if (reader != nullptr)
            why = replayVerified(*reader, sinks);
        if (why.ok()) {
            hits.inc();
            return instructions;
        }
        if (why.code() == StatusCode::Cancelled ||
            why.code() == StatusCode::DeadlineExceeded) {
            // Abandoned, not broken: the run was cancelled during
            // verify or replay. The delivered count is unspecified
            // (sinks may hold a prefix); callers that care consult
            // currentCancelToken() for the cause.
            return 0;
        }
        // Damaged entries were quarantined; an unreadable one is left
        // in place. Either way the cold path below regenerates the
        // trace from the VM and publishes over the key.
        if (why.code() != StatusCode::CorruptData)
            warn("trace cache entry ", cache->entryPath(key),
                 " unreadable (", why.str(), "); regenerating");
    }
    misses.inc();

    // Execute the VM and record into a private staging file, then
    // publish atomically so a crash can never leave a partial entry.
    // No lock: a concurrent generator of the same key records into its
    // own staging file and publishes the same bytes.
    const std::string staging = cache->stagingPath(key);
    uint64_t executed = 0;
    Status captureStatus;
    bool torn = false;
    {
        TraceStoreWriter writer(staging);
        std::vector<TraceSink *> all(sinks);
        all.push_back(&writer);
        executed = runTrace(workload.build(input_idx), all,
                            instructions);
        captureStatus = writer.status();
        torn = writer.crashed();
    }

    // Capture failures never fail the run — the sinks already saw the
    // full live stream; only the cache entry is lost.
    if (executed == instructions && captureStatus.ok()) {
        const Status pub = cache->publish(staging, key);
        if (!pub.ok()) {
            degraded.inc();
            warn("cannot publish trace cache entry (", pub.str(),
                 "); run results are unaffected");
            std::error_code ec;
            std::filesystem::remove(staging, ec);
        }
    } else {
        if (!captureStatus.ok()) {
            degraded.inc();
            warn("trace capture failed (", captureStatus.str(),
                 "); entry not cached, run results are unaffected");
        }
        // A simulated crash deliberately leaves its torn staging file
        // behind (the "dead process" debris) so the constructor-time
        // GC path stays exercised; every other failure cleans up.
        if (!torn) {
            std::error_code ec;
            std::filesystem::remove(staging, ec);
        }
    }
    return executed;
}

// --- characterization ------------------------------------------------

uint64_t
CharacterizationResult::medianStaticPerSlice() const
{
    std::vector<uint64_t> counts;
    for (const auto &slice : stats->slices())
        counts.push_back(slice.branches.size());
    std::sort(counts.begin(), counts.end());
    return counts.empty() ? 0 : counts[counts.size() / 2];
}

CharacterizationResult
characterize(const Workload &workload, size_t input_idx,
             const CharacterizationConfig &config)
{
    static obs::Counter &slices =
        obs::counter("core.characterize.slices");
    static obs::Histogram &charNs =
        obs::histogram("core.characterize_ns");
    obs::ScopedTimer timer(charNs);
    slices.add(config.numSlices);
    obs::Registry::instance().setRunField("predictor",
                                          config.predictor);

    CharacterizationResult result;
    result.workloadName = workload.name;
    result.inputLabel = workload.inputs.at(input_idx).label;
    result.predictor = makePredictor(config.predictor);

    result.staticBranchesInProgram =
        workload.build(input_idx).staticCondBranches();
    result.stats = std::make_unique<SlicedBranchStats>(
        *result.predictor, config.sliceLength);

    BbvCollector bbv(config.sliceLength);
    std::vector<TraceSink *> sinks{result.stats.get()};
    if (config.collectPhases)
        sinks.push_back(&bbv);

    runWorkloadTrace(workload, input_idx, sinks,
                     config.sliceLength * config.numSlices);

    result.criteria = H2pCriteria{}.scaledTo(config.sliceLength);
    result.h2p = summarizeH2ps(*result.stats, result.criteria);
    if (config.collectPhases)
        result.phases = clusterPhases(bbv.vectors());
    return result;
}

// --- IPC studies -----------------------------------------------------

namespace {

/**
 * Run fn(0) .. fn(n - 1) on up to min(n, hardware threads) threads, the
 * caller among them, each thread taking the next index until none is
 * left. The first exception thrown by any call is rethrown on the
 * caller once every thread is joined; the other threads stop taking
 * indices as soon as it is recorded.
 */
template <typename Fn>
void
parallelFor(size_t n, const Fn &fn)
{
    std::atomic<size_t> next{0};
    std::mutex failureMutex;
    std::exception_ptr failure;
    auto work = [&]() {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failureMutex);
                if (!failure)
                    failure = std::current_exception();
                next.store(n);
            }
        }
    };
    const size_t threads = std::min<size_t>(
        n, std::max(1u, std::thread::hardware_concurrency()));
    {
        // jthreads join on destruction, also when starting one throws.
        std::vector<std::jthread> workers;
        for (size_t t = 1; t < threads; ++t)
            workers.emplace_back(work);
        work();
    }
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace

/**
 * One task per predictor column: each builds its PredictorSim, one
 * MemorySide and one CoreModel stepping every scale, feeds them from
 * its own VM run, and fills its column of the grid.
 */
IpcStudyResult
runIpcStudy(
    const Program &program,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions)
{
    BPNSP_ASSERT(!predictors.empty() && !scales.empty());

    IpcStudyResult result;
    result.scales = scales;
    result.columns.resize(predictors.size());
    CancelToken &cancel = *currentCancelToken();
    const CoreConfig base = CoreConfig::skylake();
    parallelFor(predictors.size(), [&](size_t p) {
        // Worker threads do not inherit the caller's cancel scope.
        CancelScope scope(cancel);
        PredictorSim sim(*predictors[p].second,
                         /*collect_per_branch=*/false);
        MemorySide memory(sim);
        CoreModel core(base, scales, memory);
        runTrace(program, {&sim, &memory, &core}, instructions);

        IpcColumn &col = result.columns[p];
        col.name = predictors[p].first;
        col.accuracy = sim.accuracy();
        for (size_t s = 0; s < scales.size(); ++s)
            col.perScale.push_back(core.counters(s));
    });
    return result;
}

IpcStudyResult
runIpcStudy(
    const Workload &workload, size_t input_idx,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions)
{
    recordRunIdentity(workload, input_idx, instructions);
    return runIpcStudy(workload.build(input_idx), std::move(predictors),
                       scales, instructions);
}

} // namespace bpnsp
