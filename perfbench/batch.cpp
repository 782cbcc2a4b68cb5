/**
 * @file
 * The three batch workloads: ipc_sweep (the Fig. 7 grid), characterize
 * (the Table I pass) and trace_replay (warm trace-cache replay). Each
 * is a closed loop of calls into one public entry point, every call a
 * complete unit of work with fresh predictors, exactly as the figure
 * harnesses issue them. Calls visit every input of the workload in a
 * seed-shuffled order, so each window holds the same input mix.
 */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace bpnsp;

namespace {

/** Calls of a traced window, split between plain and traced. */
constexpr size_t kMinTracedCalls = 100;


/**
 * The order in which calls visit a workload's inputs: each input once
 * per cycle, the cycle shuffled by the seeded stream.
 */
class InputCycle
{
  public:
    InputCycle(size_t inputs, uint64_t seed)
        : count(inputs), rng(Rng::stream(seed, 0xc1c))
    {
    }

    size_t
    next()
    {
        if (pending.empty()) {
            for (size_t i = 0; i < count; ++i)
                pending.push_back(i);
            for (size_t i = count; i > 1; --i)
                std::swap(pending[i - 1], pending[rng.below(i)]);
        }
        const size_t idx = pending.back();
        pending.pop_back();
        return idx;
    }

  private:
    size_t count;
    Rng rng;
    std::vector<size_t> pending;
};

/**
 * One batch workload: set-up, one timed call, checks, layer model.
 * Set-up may run again between any two calls.
 * Results of every call are compared with the first call on the same
 * input (the simulation is deterministic), then with an independent
 * path in check().
 */
class BatchCase
{
  public:
    virtual ~BatchCase() = default;

    /** One-off work before the window (timed as setup_s). */
    virtual void setUp() = 0;

    /** One unit of work on one input (timed). */
    virtual void call(size_t input) = 0;

    /** Name of the span a traced run records around call(). */
    virtual const char *spanName() const = 0;

    virtual uint64_t instructionsPerCall() const = 0;

    /** Inputs the calls cycle over (the cells of the mix). */
    virtual size_t inputCount() const = 0;

    /** Output checks on an independent path, after the window. */
    virtual void check(RunResult *result) = 0;

    /** The ledger measures input 0 of the workload. */
    virtual LedgerInput ledgerInput() const = 0;

    /** Σ(layer ns × layer count) for one call on the ledger's input. */
    virtual double modelledCallNs(const Ledger &ledger) const = 0;
};

/** Call latencies of a window, with the input each call ran. */
struct Calls
{
    std::vector<double> seconds;
    std::vector<size_t> inputs;

    /** The calls on each input, as the cells of the mix. */
    std::vector<Cell>
    cells(size_t count, uint64_t instructions) const
    {
        std::vector<Cell> out(count);
        for (Cell &cell : out)
            cell.instructions = static_cast<double>(instructions);
        for (size_t i = 0; i < seconds.size(); ++i)
            out[inputs[i]].seconds.push_back(seconds[i]);
        return out;
    }

    /** Median seconds of the calls on one input. */
    double
    medianOn(size_t input) const
    {
        std::vector<double> on;
        for (size_t i = 0; i < seconds.size(); ++i)
            if (inputs[i] == input)
                on.push_back(seconds[i]);
        return median(on);
    }
};

/** Seconds of one set-up. */
double
timedSetUp(BatchCase &c)
{
    const auto t0 = Clock::now();
    c.setUp();
    return secondsSince(t0);
}

RunResult
runBatch(BatchCase &c, const RunConfig &cfg)
{
    RunResult result;
    InputCycle cycle(c.inputCount(), cfg.seed);
    auto call = [&] {
        const size_t input = cycle.next();
        c.call(input);
        return input;
    };

    if (!cfg.trace) {
        // Every input gets enough calls for its own quantile; the
        // shuffled cycle visits all inputs equally often, so a total
        // of `need` calls gives each input at least kMinCellSamples.
        const size_t need = kMinCellSamples * c.inputCount();
        std::vector<double> setup;
        Calls calls;
        double wall = 0.0;
        // One set-up runs before each of kSetupRepeats stretches of
        // the window, so set-ups see the host's load over the whole
        // run, as the calls do: co-tenant spells last seconds, and a
        // block of back-to-back set-ups can fall wholly inside one.
        for (int k = 0; k < kSetupRepeats ||
                        (calls.seconds.size() < need &&
                         wall < 4 * cfg.seconds);
             ++k) {
            if (k < kSetupRepeats)
                setup.push_back(timedSetUp(c));
            const auto t0 = Clock::now();
            const std::vector<double> s =
                closedLoop(cfg.seconds / kSetupRepeats, 0,
                           [&] { calls.inputs.push_back(call()); });
            wall += secondsSince(t0);
            calls.seconds.insert(calls.seconds.end(), s.begin(), s.end());
        }
        const uint64_t n = calls.seconds.size();
        result.attempted = n;
        if (n < need)
            result.mismatch("window ended with too few calls for the "
                            "per-input quantiles");
        c.check(&result);

        const uint64_t instr = c.instructionsPerCall();
        result.add("minstr_per_s",
                   mixMinstrPerSecond(calls.cells(c.inputCount(), instr)),
                   "Minstr/s", n);
        result.add("setup_s", percentile(setup, kSetupQuantile), "s",
                   setup.size());
        result.add("peak_rss_mb", peakRssMb(getpid()), "MiB", 1);
        result.extra.push_back({"req_per_s", n / wall, "req/s", n});
        result.extra.push_back({"window_minstr_per_s",
                                static_cast<double>(instr * n) / wall / 1e6,
                                "Minstr/s", n});
        return result;
    }

    // Traced run: one set-up, then calls alternate between plain and
    // wrapped in a span (so host drift cancels out of the overhead),
    // then the ledger over input 0.
    c.setUp();
    SpanLog spans;
    Calls plain, traced;
    bool traceNext = false;
    closedLoop(cfg.seconds, kMinTracedCalls, [&] {
        const auto t0 = Clock::now();
        const size_t input = call();
        if (traceNext)
            spans.record(c.spanName(), t0, Clock::now());
        const auto t1 = Clock::now();   // a traced call pays its span
        Calls &into = traceNext ? traced : plain;
        into.seconds.push_back(
            std::chrono::duration<double>(t1 - t0).count());
        into.inputs.push_back(input);
        traceNext = !traceNext;
    });
    result.attempted = plain.seconds.size() + traced.seconds.size();

    const LedgerInput input = c.ledgerInput();
    Ledger ledger = measureLedger(input);
    measureServeLedger(cfg, input, &ledger, &result);
    c.check(&result);

    reportLayers(ledger,
                 c.modelledCallNs(ledger) /
                     (plain.medianOn(input.inputIdx) * 1e9),
                 1.0 - median(plain.seconds) / median(traced.seconds),
                 &result);
    return result;
}

/** Make fresh predictors by name, in order. */
std::vector<std::pair<std::string, std::unique_ptr<BranchPredictor>>>
makePredictors(const std::vector<std::string> &names)
{
    std::vector<std::pair<std::string, std::unique_ptr<BranchPredictor>>>
        out;
    for (const std::string &name : names)
        out.emplace_back(name, makePredictor(name));
    return out;
}

/** Mispredicts of a standalone predictor over the program's stream. */
uint64_t
standaloneMispredicts(const Program &program, const std::string &name,
                      uint64_t instructions)
{
    const std::unique_ptr<BranchPredictor> bp = makePredictor(name);
    PredictorSim sim(*bp, /*collect_per_branch=*/false);
    runTrace(program, {&sim}, instructions);
    return sim.condMispreds();
}

/** Cost of one runTrace delivering to `outputs` sinks (ns). */
double
deliveryNs(const Ledger &l, size_t outputs)
{
    return static_cast<double>(l.records) *
           (l.at("vm.ns_per_instr") +
            static_cast<double>(outputs) * l.at("core.fanout.ns_per_output"));
}

/**
 * Per-input record of the first call's result; later calls on the
 * same input must reproduce it.
 */
template <typename T>
class FirstResults
{
  public:
    void reset(size_t inputs) { first.assign(inputs, std::nullopt); }

    void
    note(size_t input, const T &got)
    {
        if (!first[input])
            first[input] = got;
        else if (!(got == *first[input]))
            ++drifted;
    }

    const std::optional<T> &operator[](size_t input) const
    {
        return first[input];
    }

    size_t size() const { return first.size(); }

    /** Mismatch when any call disagreed with its input's first. */
    void
    report(const std::string &workload, RunResult *result) const
    {
        if (drifted != 0)
            result->mismatch(workload + ": " + std::to_string(drifted) +
                                 " calls disagree with the first call on "
                                 "their input",
                             drifted);
    }

  private:
    std::vector<std::optional<T>> first;
    uint64_t drifted = 0;
};

// --- ipc_sweep --------------------------------------------------------

/**
 * Fig. 7 shape: one VM pass over gcc_like feeds 7 predictor columns
 * (TAGE-SC-L 8KB..1024KB plus perfect) x 6 pipeline scales = 42
 * CoreModels, through runIpcStudy with no trace cache.
 */
class IpcSweep : public BatchCase
{
  public:
    static constexpr uint64_t kInstructions = 32768;

    IpcSweep() : workload(findWorkload("gcc_like"))
    {
        columns = kTageSizes;
        columns.push_back("perfect");
    }

    void
    setUp() override
    {
        setTraceCacheDir("");
        workload = findWorkload("gcc_like");
        programs.clear();
        for (size_t i = 0; i < workload.inputs.size(); ++i)
            programs.push_back(workload.build(i));
        first.reset(programs.size());
        call(0);   // warm-up: predictor tables and core models touched
    }

    void
    call(size_t idx) override
    {
        const IpcStudyResult r =
            runIpcStudy(programs[idx], makePredictors(columns),
                        kPipelineScales, kInstructions);
        Grid grid;
        for (const IpcColumn &col : r.columns)
            for (const PerfCounters &pc : col.perScale)
                grid.push_back({pc.cycles, pc.mispredicts});
        first.note(idx, grid);
    }

    const char *spanName() const override { return "core.runIpcStudy"; }

    uint64_t instructionsPerCall() const override { return kInstructions; }

    size_t inputCount() const override { return workload.inputs.size(); }

    void
    check(RunResult *result) override
    {
        first.report("ipc_sweep", result);
        const size_t scales = kPipelineScales.size();
        for (size_t idx = 0; idx < first.size(); ++idx) {
            if (!first[idx])
                continue;
            const Grid &grid = *first[idx];
            const uint64_t want = standaloneMispredicts(
                programs[idx], "tage-sc-l-8KB", kInstructions);
            for (size_t s = 0; s < scales; ++s) {
                if (grid[s].second != want)
                    result->mismatch(
                        "ipc_sweep: 8KB column has " +
                        std::to_string(grid[s].second) +
                        " mispredicts, standalone PredictorSim " +
                        std::to_string(want));
                if (grid[grid.size() - scales + s].second != 0)
                    result->mismatch(
                        "ipc_sweep: perfect column mispredicts");
            }
        }
    }

    LedgerInput
    ledgerInput() const override
    {
        return {workload.name, 0, kInstructions, kInstructions / 6};
    }

    double
    modelledCallNs(const Ledger &l) const override
    {
        const double sims = static_cast<double>(columns.size());
        double ns =
            deliveryNs(l, columns.size() * (1 + kPipelineScales.size()));
        for (const std::string &name : columns)
            ns += l.at("bp." + name + ".ns_per_branch") *
                      static_cast<double>(l.condBranches) +
                  l.at("bp." + name + ".construct_ns");
        for (unsigned scale : kPipelineScales) {
            const std::string core =
                "pipeline.core." + std::to_string(scale) + "x";
            ns += sims * (l.at(core + ".ns_per_record") *
                              static_cast<double>(l.records) +
                          l.at(core + ".construct_ns"));
        }
        return ns;
    }

  private:
    /** (cycles, mispredicts) of every cell, column-major. */
    using Grid = std::vector<std::pair<uint64_t, uint64_t>>;

    Workload workload;
    std::vector<std::string> columns;
    std::vector<Program> programs;
    FirstResults<Grid> first;
};

// --- characterize -----------------------------------------------------

/**
 * Table I pass: characterize() (TAGE-SC-L-8KB, SlicedBranchStats, H2P
 * summary, SimPoint) over the SPEC-like perlbench_like inputs,
 * VM-direct.
 */
class Characterize : public BatchCase
{
  public:
    static constexpr uint64_t kSliceLength = 50000;
    static constexpr uint64_t kSlices = 6;

    Characterize() : workload(findWorkload("perlbench_like"))
    {
        config.predictor = "tage-sc-l-8KB";
        config.sliceLength = kSliceLength;
        config.numSlices = kSlices;
        config.collectPhases = true;
    }

    void
    setUp() override
    {
        setTraceCacheDir("");
        workload = findWorkload("perlbench_like");
        first.reset(workload.inputs.size());
        for (size_t i = 0; i < workload.inputs.size(); ++i)
            call(i);   // warm-up: one call per input
    }

    void
    call(size_t idx) override
    {
        const CharacterizationResult r =
            characterize(workload, idx, config);
        first.note(idx, r.stats->condMispreds());
    }

    const char *spanName() const override { return "core.characterize"; }

    uint64_t
    instructionsPerCall() const override
    {
        return kSliceLength * kSlices;
    }

    size_t inputCount() const override { return workload.inputs.size(); }

    void
    check(RunResult *result) override
    {
        first.report("characterize", result);
        for (size_t idx = 0; idx < first.size(); ++idx) {
            if (!first[idx])
                continue;
            const uint64_t want = standaloneMispredicts(
                workload.build(idx), config.predictor,
                instructionsPerCall());
            if (*first[idx] != want)
                result->mismatch("characterize: input " +
                                 std::to_string(idx) + " has " +
                                 std::to_string(*first[idx]) +
                                 " mispredicts, standalone PredictorSim " +
                                 std::to_string(want));
        }
    }

    LedgerInput
    ledgerInput() const override
    {
        return {workload.name, 0, instructionsPerCall(), kSliceLength};
    }

    double
    modelledCallNs(const Ledger &l) const override
    {
        const double branches = static_cast<double>(l.condBranches);
        return 2 * l.at("workloads.build_ms") * 1e6 + deliveryNs(l, 2) +
               (l.at("analysis.sliced_stats.ns_per_branch") +
                l.at("bp.tage-sc-l-8KB.ns_per_branch")) *
                   branches +
               l.at("bp.tage-sc-l-8KB.construct_ns") +
               l.at("analysis.bbv.ns_per_record") *
                   static_cast<double>(l.records) +
               (l.at("analysis.h2p.ms") + l.at("analysis.simpoint.ms")) *
                   1e6;
    }

  private:
    Workload workload;
    CharacterizationConfig config;
    FirstResults<uint64_t> first;
};

// --- trace_replay -----------------------------------------------------

/**
 * Warm trace-cache replay: set-up records every xz_like input into a
 * cache directory inside the run directory (page-cache resident: the
 * window reads it and writes nothing); each call streams one entry
 * through runWorkloadTrace into a CountingSink plus a gshare
 * PredictorSim.
 */
class TraceReplay : public BatchCase
{
  public:
    static constexpr uint64_t kInstructions = 200000;

    TraceReplay() : workload(findWorkload("xz_like")) {}

    void
    setUp() override
    {
        workload = findWorkload("xz_like");
        std::filesystem::remove_all(kCacheDir);
        setTraceCacheDir(kCacheDir);
        for (size_t i = 0; i < workload.inputs.size(); ++i) {
            EmptySink sink;
            runWorkloadTrace(workload, i, {&sink}, kInstructions);
        }
        first.reset(workload.inputs.size());
        calls = 0;
        hitsBefore = hits().value();
        call(0);   // warm-up: the first replay maps and touches an entry
    }

    void
    call(size_t idx) override
    {
        CountingSink counting;
        const std::unique_ptr<BranchPredictor> bp = makePredictor("gshare");
        PredictorSim sim(*bp, /*collect_per_branch=*/false);
        const uint64_t got = runWorkloadTrace(
            workload, idx, {&counting, &sim}, kInstructions);
        first.note(idx, {got, counting.condBranchCount(),
                         counting.takenCount(), sim.condMispreds()});
        ++calls;
    }

    const char *spanName() const override { return "core.runWorkloadTrace"; }

    uint64_t instructionsPerCall() const override { return kInstructions; }

    size_t inputCount() const override { return workload.inputs.size(); }

    void
    check(RunResult *result) override
    {
        first.report("trace_replay", result);
        const uint64_t hit = hits().value() - hitsBefore;
        if (hit != calls)
            result->mismatch("trace_replay: " + std::to_string(calls) +
                             " calls but " + std::to_string(hit) +
                             " trace-cache hits");
        for (size_t idx = 0; idx < first.size(); ++idx) {
            if (!first[idx])
                continue;
            CountingSink counting;
            const std::unique_ptr<BranchPredictor> bp =
                makePredictor("gshare");
            PredictorSim sim(*bp, false);
            const uint64_t got = runTrace(workload.build(idx),
                                          {&counting, &sim}, kInstructions);
            const Counts direct{got, counting.condBranchCount(),
                                counting.takenCount(), sim.condMispreds()};
            if (!(direct == *first[idx]))
                result->mismatch("trace_replay: input " +
                                 std::to_string(idx) +
                                 " replayed counts differ from a VM-direct "
                                 "run");
        }
    }

    LedgerInput
    ledgerInput() const override
    {
        return {workload.name, 0, kInstructions, kInstructions / 6};
    }

    double
    modelledCallNs(const Ledger &l) const override
    {
        const double records = static_cast<double>(l.records);
        return records * (l.at("tracestore.verify_ns_per_record") +
                          l.at("tracestore.decode_ns_per_record") +
                          2 * l.at("core.fanout.ns_per_output")) +
               l.at("bp.gshare.ns_per_branch") *
                   static_cast<double>(l.condBranches) +
               l.at("bp.gshare.construct_ns");
    }

  private:
    struct Counts
    {
        uint64_t delivered = 0, cond = 0, taken = 0, mispredicts = 0;
        bool operator==(const Counts &) const = default;
    };

    static constexpr const char *kCacheDir = "trace-cache";

    static obs::Counter &
    hits()
    {
        return obs::counter("tracestore.cache.hits");
    }

    Workload workload;
    FirstResults<Counts> first;
    uint64_t calls = 0;
    uint64_t hitsBefore = 0;
};

} // namespace

RunResult
runIpcSweep(const RunConfig &cfg)
{
    IpcSweep c;
    return runBatch(c, cfg);
}

RunResult
runCharacterize(const RunConfig &cfg)
{
    Characterize c;
    return runBatch(c, cfg);
}

RunResult
runTraceReplay(const RunConfig &cfg)
{
    TraceReplay c;
    return runBatch(c, cfg);
}

} // namespace perfbench
