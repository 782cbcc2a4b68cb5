#include "core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

/** Busy-wait hint: lets a spinning hyperthread yield its pipeline. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Wait until `ready()` holds: spin with a pause hint for a short
 * while, then keep polling with std::this_thread::yield(). A handoff
 * is normally tens of microseconds away, so spinning catches it
 * without a kernel wake-up; yielding afterwards gives the core back
 * when the machine is oversubscribed and the peer is not running.
 */
template <typename Ready>
void
spinThenYield(Ready &&ready)
{
    constexpr unsigned kSpinPolls = 1u << 12;
    for (unsigned polls = 0; !ready(); ++polls) {
        if (polls < kSpinPolls)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

/**
 * The IPC study's fan-out. Buffers the trace into blocks and hands
 * each block to a fixed team of threads, the calling (producing)
 * thread among them. Every member owns whole column groups — a
 * PredictorSim, its MemorySide and its CoreModels — round-robin, and
 * feeds them record by record, so each consumer sees exactly the
 * stream and the sim-before-cores order a serial FanoutSink would give
 * it; only independent columns run concurrently. The caller takes the
 * last (never larger) share because it also produces the trace; a
 * team of one starts no threads.
 *
 * Blocks are handed off synchronously: the producer publishes a block,
 * runs its own share, and waits for every worker before refilling it.
 * onEnd() flushes the partial block and forwards onEnd() to every
 * group; runTrace delivers it on cancellation too, so a study cut
 * short still feeds every column the same delivered prefix. An
 * exception thrown by a worker's groups is rethrown on the
 * producer; the workers are joined on destruction.
 */
class ColumnTeamSink : public TraceSink
{
  public:
    /** Records per block (~192 KiB of TraceRecords). */
    static constexpr size_t kBlockRecords = 4096;

    ColumnTeamSink(std::vector<FanoutSink> &column_groups,
                   unsigned members)
        : block(kBlockRecords), shares(members)
    {
        for (size_t g = 0; g < column_groups.size(); ++g)
            shares[g % members].push_back(&column_groups[g]);
        try {
            for (unsigned m = 0; m + 1 < members; ++m)
                workers.emplace_back([this, m]() { work(m); });
        } catch (...) {
            stop();
            throw;
        }
    }

    ~ColumnTeamSink() override
    {
        awaitWorkers();   // idle unless a dispatch was cut short
        stop();
    }

    ColumnTeamSink(const ColumnTeamSink &) = delete;
    ColumnTeamSink &operator=(const ColumnTeamSink &) = delete;

    void
    onRecord(const TraceRecord &rec) override
    {
        block[filled++] = rec;
        if (filled == kBlockRecords)
            dispatch(Step::Records);
    }

    void onEnd() override { dispatch(Step::End); }

  private:
    enum class Step : uint8_t { Records, End, Exit };

    /** Deliver the filled block (and an End) to every share. */
    void
    dispatch(Step step)
    {
        publish(filled, step);
        feed(shares.back(), filled, step);
        awaitWorkers();
        filled = 0;
        std::lock_guard<std::mutex> lock(failureMutex);
        if (failure)
            std::rethrow_exception(std::exchange(failure, nullptr));
    }

    void
    awaitWorkers() const
    {
        spinThenYield([this]() {
            return busy.load(std::memory_order_acquire) == 0;
        });
    }

    /** Release one step to the workers (they start at once). */
    void
    publish(size_t count, Step step)
    {
        stepCount = count;
        stepKind = step;
        busy.store(static_cast<unsigned>(workers.size()),
                   std::memory_order_relaxed);
        generation.fetch_add(1, std::memory_order_release);
    }

    void
    stop()
    {
        publish(0, Step::Exit);
        for (std::thread &t : workers)
            t.join();
    }

    void
    feed(const std::vector<FanoutSink *> &share, size_t count,
         Step step) const
    {
        for (FanoutSink *group : share) {
            for (size_t i = 0; i < count; ++i)
                group->onRecord(block[i]);
            if (step == Step::End)
                group->onEnd();
        }
    }

    void
    work(unsigned member)
    {
        uint64_t seen = 0;
        for (;;) {
            spinThenYield([&]() {
                return generation.load(std::memory_order_acquire) !=
                       seen;
            });
            ++seen;
            if (stepKind == Step::Exit)
                return;
            try {
                feed(shares[member], stepCount, stepKind);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failureMutex);
                if (!failure)
                    failure = std::current_exception();
            }
            busy.fetch_sub(1, std::memory_order_release);
        }
    }

    std::vector<TraceRecord> block;
    size_t filled = 0;
    std::vector<std::vector<FanoutSink *>> shares;

    // Written by the producer before the generation bump, read by the
    // workers after observing it.
    size_t stepCount = 0;
    Step stepKind = Step::Records;

    alignas(64) std::atomic<uint64_t> generation{0};
    alignas(64) std::atomic<unsigned> busy{0};

    std::mutex failureMutex;
    std::exception_ptr failure;   ///< first worker exception, if any

    std::vector<std::thread> workers;
};

} // namespace

/**
 * The single-pass many-consumer study: builds one PredictorSim and one
 * MemorySide per predictor and one CoreModel per (predictor, scale)
 * reading that column's MemorySide, all on the calling thread, runs
 * the VM once through a ColumnTeamSink with one thread per column (up
 * to the hardware's concurrency), and collects the grid once the team
 * is joined.
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

    std::vector<std::unique_ptr<PredictorSim>> sims;
    std::vector<std::unique_ptr<MemorySide>> memories;
    std::vector<std::vector<std::unique_ptr<CoreModel>>> cores;
    std::vector<FanoutSink> groups(predictors.size());
    const CoreConfig base = CoreConfig::skylake();
    for (size_t p = 0; p < predictors.size(); ++p) {
        sims.push_back(std::make_unique<PredictorSim>(
            *predictors[p].second, /*collect_per_branch=*/false));
        groups[p].add(sims.back().get());
        memories.push_back(std::make_unique<MemorySide>(*sims.back()));
        groups[p].add(memories.back().get());
        cores.emplace_back();
        for (unsigned scale : scales) {
            cores.back().push_back(std::make_unique<CoreModel>(
                base.scaled(scale), *memories.back()));
            groups[p].add(cores.back().back().get());
        }
    }

    const unsigned members = static_cast<unsigned>(std::min<size_t>(
        groups.size(), std::max(1u, std::thread::hardware_concurrency())));
    {
        ColumnTeamSink team(groups, members);
        runTrace(program, {&team}, instructions);
    }

    for (size_t p = 0; p < predictors.size(); ++p) {
        IpcColumn col;
        col.name = predictors[p].first;
        col.accuracy = sims[p]->accuracy();
        for (size_t s = 0; s < scales.size(); ++s)
            col.perScale.push_back(cores[p][s]->counters());
        result.columns.push_back(std::move(col));
    }
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
