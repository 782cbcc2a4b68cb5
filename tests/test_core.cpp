/**
 * @file
 * Tests for the core experiment drivers: runTrace, characterize, the
 * single-pass IPC study grid, and concurrent cold runs of one trace
 * cache key.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bp/factory.hpp"
#include "bp/oracle.hpp"
#include "core/runner.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/format.hpp"
#include "util/cancel.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

using Predictors =
    std::vector<std::pair<std::string, std::unique_ptr<BranchPredictor>>>;

/** The Fig. 7 columns: every TAGE-SC-L size plus the perfect oracle. */
const std::vector<std::string> kSevenColumns{
    "tage-sc-l-8KB",   "tage-sc-l-64KB",  "tage-sc-l-128KB",
    "tage-sc-l-256KB", "tage-sc-l-512KB", "tage-sc-l-1024KB",
    "perfect"};

const std::vector<unsigned> kStudyScales{1, 4, 32};

Predictors
makeColumns(const std::vector<std::string> &names)
{
    Predictors preds;
    for (const std::string &name : names)
        preds.emplace_back(name, makePredictor(name));
    return preds;
}

/**
 * The study's reference semantics, built by hand: one serial
 * FanoutSink per column (its PredictorSim, then one CoreModel per
 * scale), all driven by a single runTrace pass on this thread.
 */
IpcStudyResult
serialStudy(const Program &program, const std::vector<std::string> &names,
            const std::vector<unsigned> &scales, uint64_t instructions)
{
    Predictors preds = makeColumns(names);
    std::vector<std::unique_ptr<PredictorSim>> sims;
    std::vector<std::vector<std::unique_ptr<CoreModel>>> cores;
    std::vector<std::unique_ptr<FanoutSink>> columns;
    std::vector<TraceSink *> sinks;
    for (auto &[name, bp] : preds) {
        sims.push_back(std::make_unique<PredictorSim>(*bp, false));
        columns.push_back(std::make_unique<FanoutSink>());
        columns.back()->add(sims.back().get());
        cores.emplace_back();
        for (unsigned scale : scales) {
            cores.back().push_back(std::make_unique<CoreModel>(
                CoreConfig::skylake().scaled(scale), *sims.back()));
            columns.back()->add(cores.back().back().get());
        }
        sinks.push_back(columns.back().get());
    }
    runTrace(program, sinks, instructions);

    IpcStudyResult result;
    result.scales = scales;
    for (size_t p = 0; p < preds.size(); ++p) {
        IpcColumn col;
        col.name = preds[p].first;
        col.accuracy = sims[p]->accuracy();
        for (const auto &core : cores[p])
            col.perScale.push_back(core->counters());
        result.columns.push_back(std::move(col));
    }
    return result;
}

/** Every counter of every cell, and every accuracy, bit for bit. */
void
expectSameGrid(const IpcStudyResult &got, const IpcStudyResult &want)
{
    ASSERT_EQ(got.scales, want.scales);
    ASSERT_EQ(got.columns.size(), want.columns.size());
    for (size_t c = 0; c < want.columns.size(); ++c) {
        const IpcColumn &g = got.columns[c];
        const IpcColumn &w = want.columns[c];
        SCOPED_TRACE(w.name);
        EXPECT_EQ(g.name, w.name);
        EXPECT_EQ(g.accuracy, w.accuracy);
        ASSERT_EQ(g.perScale.size(), w.perScale.size());
        for (size_t s = 0; s < w.perScale.size(); ++s) {
            const PerfCounters &a = g.perScale[s];
            const PerfCounters &b = w.perScale[s];
            SCOPED_TRACE("scale index " + std::to_string(s));
            EXPECT_EQ(a.instructions, b.instructions);
            EXPECT_EQ(a.cycles, b.cycles);
            EXPECT_EQ(a.condBranches, b.condBranches);
            EXPECT_EQ(a.mispredicts, b.mispredicts);
            EXPECT_EQ(a.targetMispredicts, b.targetMispredicts);
            EXPECT_EQ(a.ftqStallCycles, b.ftqStallCycles);
            EXPECT_EQ(a.directionFlushCycles, b.directionFlushCycles);
            EXPECT_EQ(a.targetFlushCycles, b.targetFlushCycles);
        }
    }
}

/** A predictor that fails its `limit`-th prediction. */
class FailingPredictor : public BranchPredictor
{
  public:
    explicit FailingPredictor(uint64_t limit) : left(limit) {}

    std::string name() const override { return "failing"; }

    bool
    predict(uint64_t, bool oracle_taken) override
    {
        if (--left == 0)
            throw std::runtime_error("predictor failed");
        return oracle_taken;
    }

    void update(uint64_t, bool, bool, uint64_t) override {}
    uint64_t storageBits() const override { return 0; }

  private:
    uint64_t left;
};

/** Fresh trace-cache directory per test; removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_core_" + tag)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    const std::string path;
};

/**
 * Holds its thread at the first record until `peers` threads have
 * reached theirs, so every peer is past the cache lookup and on the
 * VM path before any of them can publish.
 */
class RendezvousSink : public TraceSink
{
  public:
    RendezvousSink(std::atomic<unsigned> &arrived, unsigned peers)
        : arrivals(arrived), need(peers)
    {
    }

    void
    onRecord(const TraceRecord &) override
    {
        if (met)
            return;
        met = true;
        arrivals.fetch_add(1);
        while (arrivals.load() < need)
            std::this_thread::yield();
    }

  private:
    std::atomic<unsigned> &arrivals;
    const unsigned need;
    bool met = false;
};

} // namespace

TEST(RunTrace, DeliversExactBudgetAndEnd)
{
    const Workload w = findWorkload("leela_like");
    const Program p = w.build(0);
    CountingSink c1;
    CountingSink c2;
    const uint64_t executed = runTrace(p, {&c1, &c2}, 50000);
    EXPECT_EQ(executed, 50000u);
    EXPECT_EQ(c1.totalCount(), 50000u);
    EXPECT_EQ(c2.totalCount(), 50000u);
}

TEST(Characterize, ProducesSlicesPhasesAndH2ps)
{
    CharacterizationConfig cfg;
    cfg.sliceLength = 100000;
    cfg.numSlices = 4;
    const CharacterizationResult r =
        characterize(findWorkload("leela_like"), 0, cfg);
    EXPECT_EQ(r.workloadName, "leela_like");
    ASSERT_EQ(r.stats->slices().size(), 4u);
    EXPECT_EQ(r.stats->instructions(), 400000u);
    EXPECT_GT(r.h2p.allH2ps.size(), 5u);       // leela sprays H2Ps
    EXPECT_GT(r.h2p.avgMispredFraction, 0.5);
    EXPECT_GE(r.phases.numPhases, 1u);
    EXPECT_GT(r.medianStaticPerSlice(), 10u);
    EXPECT_GT(r.staticBranchesInProgram, 100u);
    // Criteria must be scaled to the slice length.
    EXPECT_EQ(r.criteria.minExecs,
              H2pCriteria{}.scaledTo(100000).minExecs);
}

TEST(Characterize, AccuracyExcludingH2psIsHigher)
{
    CharacterizationConfig cfg;
    cfg.sliceLength = 150000;
    cfg.numSlices = 3;
    cfg.collectPhases = false;
    const CharacterizationResult r =
        characterize(findWorkload("xz_like"), 0, cfg);
    EXPECT_GT(r.h2p.accuracyExclH2p, r.stats->accuracy());
}

TEST(IpcStudy, GridShapeAndOrdering)
{
    const Program p = findWorkload("mcf_like").build(0);
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> preds;
    preds.emplace_back("tage-sc-l-8KB",
                       makePredictor("tage-sc-l-8KB"));
    preds.emplace_back("perfect", makePredictor("perfect"));
    const std::vector<unsigned> scales{1, 4};
    const IpcStudyResult result =
        runIpcStudy(p, std::move(preds), scales, 400000);

    ASSERT_EQ(result.columns.size(), 2u);
    ASSERT_EQ(result.columns[0].perScale.size(), 2u);
    EXPECT_EQ(result.scales, scales);

    // Perfect prediction never loses to TAGE at equal scale.
    for (size_t s = 0; s < scales.size(); ++s)
        EXPECT_GE(result.ipc(1, s) * 1.001, result.ipc(0, s));
    // Perfect at 4x must beat perfect at 1x (mcf has exploitable ILP).
    EXPECT_GT(result.ipc(1, 1), result.ipc(1, 0));
    // Accuracy fields populated sensibly.
    EXPECT_DOUBLE_EQ(result.columns[1].accuracy, 1.0);
    EXPECT_LT(result.columns[0].accuracy, 1.0);
    EXPECT_GT(result.columns[0].accuracy, 0.7);
}

TEST(IpcStudy, PerfectH2pColumnBetweenBaselineAndPerfect)
{
    // Build the Fig. 1 middle curve: oracle only on screened H2Ps.
    const Workload w = findWorkload("mcf_like");
    const Program p = w.build(0);

    // Screen H2Ps first.
    auto screen_bp = makePredictor("tage-sc-l-8KB");
    PredictorSim screen(*screen_bp);
    runTrace(p, {&screen}, 200000);
    const H2pCriteria criteria = H2pCriteria{}.scaledTo(200000);
    std::unordered_set<uint64_t> h2ps;
    for (const auto &[ip, c] : screen.perBranch()) {
        if (criteria.matches(c))
            h2ps.insert(ip);
    }
    ASSERT_GT(h2ps.size(), 0u);

    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> preds;
    preds.emplace_back("tage-sc-l-8KB",
                       makePredictor("tage-sc-l-8KB"));
    preds.emplace_back("perfect-h2p",
                       std::make_unique<PerfectOnSetPredictor>(
                           makePredictor("tage-sc-l-8KB"), h2ps,
                           "h2p"));
    preds.emplace_back("perfect", makePredictor("perfect"));
    const IpcStudyResult result =
        runIpcStudy(p, std::move(preds), {4}, 400000);

    const double base = result.ipc(0, 0);
    const double h2p_ipc = result.ipc(1, 0);
    const double perfect = result.ipc(2, 0);
    // Monotone ordering; H2P oracle captures most of mcf's gap
    // (paper: H2Ps cause 96.9% of mcf mispredictions).
    EXPECT_GT(h2p_ipc, base);
    EXPECT_GE(perfect * 1.001, h2p_ipc);
    EXPECT_GT((h2p_ipc - base) / (perfect - base), 0.6);
}

TEST(IpcStudy, ParallelGridMatchesSerialComposition)
{
    // Column counts above and below a 4-thread machine's, and one
    // column on the caller alone; budgets from one instruction up.
    // Each column's own VM run must give the cells that one shared
    // serial pass gives.
    const std::vector<std::vector<std::string>> columnSets{
        kSevenColumns, {"tage-sc-l-8KB", "perfect"}, {"tage-sc-l-64KB"}};
    for (const char *name : {"mcf_like", "gcc_like"}) {
        const Program p = findWorkload(name).build(0);
        for (const auto &names : columnSets) {
            for (uint64_t n : {uint64_t{1}, uint64_t{4095},
                               uint64_t{4097}, uint64_t{100000}}) {
                SCOPED_TRACE(std::string(name) + ", " +
                             std::to_string(names.size()) +
                             " columns, " + std::to_string(n) +
                             " instructions");
                expectSameGrid(
                    runIpcStudy(p, makeColumns(names), kStudyScales, n),
                    serialStudy(p, names, kStudyScales, n));
            }
        }
    }
}

TEST(IpcStudy, ColumnExceptionReachesCallerWithWorkersJoined)
{
    // Columns are taken from a shared atomic index, so the failing
    // middle column runs on whichever thread takes it, the caller or a
    // worker; either way its exception must reach the caller, and only
    // after every worker has been joined.
    const Program p = findWorkload("mcf_like").build(0);
    Predictors preds;
    preds.emplace_back("tage-sc-l-8KB", makePredictor("tage-sc-l-8KB"));
    preds.emplace_back("failing", std::make_unique<FailingPredictor>(500));
    preds.emplace_back("perfect", makePredictor("perfect"));
    EXPECT_THROW(runIpcStudy(p, std::move(preds), kStudyScales, 100000),
                 std::runtime_error);
}

TEST(IpcStudy, CancelledStudyReturnsPromptlyWithWorkersJoined)
{
    // Budgets no test could finish: only cancellation ends these runs
    // (ctest's timeout catches a hang), and returning at all means
    // every worker thread was joined.
    const uint64_t forever = uint64_t{1} << 40;
    const Program p = findWorkload("mcf_like").build(0);
    const auto start = std::chrono::steady_clock::now();
    {
        CancelToken fired;
        fired.requestCancel();
        CancelScope scope(fired);
        const IpcStudyResult r = runIpcStudy(
            p, makeColumns(kSevenColumns), kStudyScales, forever);
        ASSERT_EQ(r.columns.size(), kSevenColumns.size());
        for (const IpcColumn &col : r.columns)
            for (const PerfCounters &pc : col.perScale)
                EXPECT_EQ(pc.instructions, 0u);
    }
    {
        // Mid-stream: the deadline fires while every column is busy.
        CancelToken deadline;
        deadline.setDeadlineAfterMs(50);
        CancelScope scope(deadline);
        const IpcStudyResult r = runIpcStudy(
            p, makeColumns(kSevenColumns), kStudyScales, forever);
        EXPECT_EQ(deadline.check().code(), StatusCode::DeadlineExceeded);
        // Each column runs its own VM, so columns may stop at
        // different points; every core of a column saw that column's
        // delivered prefix, and it is short of the budget.
        for (const IpcColumn &col : r.columns) {
            const uint64_t delivered = col.perScale[0].instructions;
            EXPECT_LT(delivered, forever);
            for (const PerfCounters &pc : col.perScale)
                EXPECT_EQ(pc.instructions, delivered);
        }
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 30.0);
}

TEST(RunWorkloadTrace, ConcurrentColdRunsOfOneKeyPublishOneEntry)
{
    // Two generators of one cold key and no lock between them: each
    // records into its own staging file while its sinks get the full
    // live stream, and both publish the same bytes under the key.
    const Workload w = findWorkload("gcc_like");
    const uint64_t n = 100000;
    DigestSink direct;
    ASSERT_EQ(runTrace(w.build(0), {&direct}, n), n);

    const ScratchDir dir("concurrent_cold");
    setTraceCacheDir(dir.path);
    std::atomic<unsigned> arrived{0};
    DigestSink digests[2];
    uint64_t delivered[2] = {0, 0};
    auto generate = [&](int i) {
        RendezvousSink rendezvous(arrived, 2);
        delivered[i] = runWorkloadTrace(
            w, 0, {&rendezvous, &digests[i]}, n);
    };
    std::thread peer(generate, 1);
    generate(0);
    peer.join();
    setTraceCacheDir("");

    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(delivered[i], n);
        EXPECT_EQ(digests[i].count(), n);
        EXPECT_EQ(digests[i].digest(), direct.digest());
    }

    // One published entry and no staging debris.
    size_t entries = 0;
    size_t others = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir.path))
        ++(e.path().extension() == ".bpt" ? entries : others);
    EXPECT_EQ(entries, 1u);
    EXPECT_EQ(others, 0u);

    const TraceCacheKey key{w.name, w.inputs[0].label, w.inputs[0].seed,
                            n};
    Status st;
    const auto reader = TraceCache(dir.path).openVerified(key, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    DigestSink replayed;
    ASSERT_TRUE(reader->replay(replayed, 0).ok());
    EXPECT_EQ(replayed.count(), n);
    EXPECT_EQ(replayed.digest(), direct.digest());
}
