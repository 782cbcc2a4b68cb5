/**
 * @file
 * Tests for the cache model and the out-of-order core timing model,
 * including the monotonicity properties the paper's IPC studies rely
 * on (better prediction => higher IPC; wider pipeline => higher IPC).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>

#include "bp/factory.hpp"
#include "bp/oracle.hpp"
#include "bp/sim.hpp"
#include "bp/simple.hpp"
#include "core/runner.hpp"
#include "frontend/frontend.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/core.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

// -------------------------------------------------------------- cache

TEST(Cache, HitAfterFill)
{
    Cache c("t", 1024, 2, 64, 1, nullptr, 100);
    EXPECT_EQ(c.access(0x1000), 101u);   // miss: 1 + 100
    EXPECT_EQ(c.access(0x1000), 1u);     // hit
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineHits)
{
    Cache c("t", 1024, 2, 64, 1, nullptr, 100);
    c.access(0x1000);
    EXPECT_EQ(c.access(0x103f), 1u);   // same 64B line
    EXPECT_EQ(c.access(0x1040), 101u); // next line misses
}

TEST(Cache, LruEviction)
{
    // Direct-mapped-ish: 2 ways, 128B cache, 64B lines => 1 set.
    Cache c("t", 128, 2, 64, 1, nullptr, 100);
    c.access(0x0000);
    c.access(0x1000);
    c.access(0x0000);    // touch A so B is LRU
    c.access(0x2000);    // evicts B
    EXPECT_EQ(c.access(0x0000), 1u);      // A still resident
    EXPECT_EQ(c.access(0x1000), 101u);    // B was evicted
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache c("t", 1024, 2, 64, 1, nullptr, 100);
    EXPECT_FALSE(c.probe(0x5000));
    c.access(0x5000);
    EXPECT_TRUE(c.probe(0x5000));
    EXPECT_EQ(c.misses(), 1u);   // probe didn't count
}

TEST(Cache, HierarchyPropagatesMisses)
{
    CacheHierarchy h;
    const unsigned first = h.l1d.access(0x1234000);
    EXPECT_GT(first, 100u);   // L1 + L2 + LLC + DRAM
    const unsigned second = h.l1d.access(0x1234000);
    EXPECT_EQ(second, h.l1d.hitLatency());
    // The L2 also holds the line now: evicting nothing, an L1-missing
    // access to the same line stops at L2.
    EXPECT_EQ(h.l2.misses(), 1u);
}

TEST(Cache, ResetClears)
{
    Cache c("t", 1024, 2, 64, 1, nullptr, 100);
    c.access(0x1000);
    c.reset();
    EXPECT_EQ(c.hits() + c.misses(), 0u);
    EXPECT_FALSE(c.probe(0x1000));
}

// ------------------------------------------------- LRU cache oracle

namespace {

/**
 * A deliberately naive LRU cache: one recency list of line addresses
 * per set, most recent first. It shares no code or layout with Cache,
 * so lockstep agreement checks the real model's tags, ages, empty-way
 * handling and victim choice.
 */
class NaiveLruCache
{
  public:
    NaiveLruCache(uint64_t size_bytes, unsigned associativity,
                  unsigned hit_latency, NaiveLruCache *next_level,
                  unsigned memory_latency = 0)
        : assoc(associativity), latency(hit_latency), next(next_level),
          memLatency(memory_latency),
          sets(size_bytes / kLine / associativity)
    {}

    unsigned
    access(uint64_t addr)
    {
        const uint64_t line = addr / kLine;
        std::list<uint64_t> &set = sets[line % sets.size()];
        const auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            set.splice(set.begin(), set, it);
            ++hits;
            return latency;
        }
        ++misses;
        if (set.size() == assoc)
            set.pop_back();
        set.push_front(line);
        return latency + (next ? next->access(addr) : memLatency);
    }

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    static constexpr uint64_t kLine = 64;
    size_t assoc;
    unsigned latency;
    NaiveLruCache *next;
    unsigned memLatency;
    std::vector<std::list<uint64_t>> sets;
};

/** An address from a hot set of `hot_lines` lines, or a cold one. */
uint64_t
hotColdAddress(Rng &rng, double hot_fraction, uint64_t hot_lines,
               uint64_t cold_bytes)
{
    if (rng.chance(hot_fraction))
        return 0x10000000 + rng.below(hot_lines) * 64 + rng.below(64);
    return rng.below(cold_bytes);
}

} // namespace

TEST(CacheOracle, LockstepWithNaiveLru)
{
    for (unsigned assoc : {1u, 2u, 8u, 16u}) {
        for (bool with_next : {false, true}) {
            for (double hot : {0.0, 0.5, 0.9}) {
                SCOPED_TRACE(testing::Message()
                             << "assoc " << assoc << " next "
                             << with_next << " hot " << hot);
                const uint64_t size = 16ull * assoc * 64;   // 16 sets
                Cache below("below", 64 * 1024, 4, 64, 7, nullptr, 90);
                NaiveLruCache naive_below(64 * 1024, 4, 7, nullptr, 90);
                Cache cache("c", size, assoc, 64, 2,
                            with_next ? &below : nullptr, 50);
                NaiveLruCache naive(size, assoc, 2,
                                    with_next ? &naive_below : nullptr,
                                    50);
                Rng rng(assoc * 131 + (with_next ? 7 : 0) +
                        static_cast<uint64_t>(hot * 10));
                for (int i = 0; i < 20000; ++i) {
                    const uint64_t addr =
                        hotColdAddress(rng, hot, 3 * assoc, 1 << 20);
                    ASSERT_EQ(cache.access(addr), naive.access(addr))
                        << "access " << i << " addr " << addr;
                }
                EXPECT_EQ(cache.hits(), naive.hits);
                EXPECT_EQ(cache.misses(), naive.misses);
                EXPECT_GT(cache.hits(), 0u);
                EXPECT_GT(cache.misses(), 0u);
                EXPECT_EQ(below.hits(), naive_below.hits);
                EXPECT_EQ(below.misses(), naive_below.misses);
            }
        }
    }
}

TEST(CacheOracle, HierarchySharedL2UnderInterleavedTraffic)
{
    // L1I and L1D miss into one L2: the interleaving order decides the
    // L2's (and the LLC's) recency, so it must match access for access.
    CacheHierarchy h;
    NaiveLruCache llc(2 * 1024 * 1024, 16, 30, nullptr, 160);
    NaiveLruCache l2(256 * 1024, 8, 10, &llc);
    NaiveLruCache l1i(32 * 1024, 8, 0, &l2);
    NaiveLruCache l1d(32 * 1024, 8, 4, &l2);
    Rng rng(2024);
    for (int i = 0; i < 200000; ++i) {
        // Code: a hot loop body plus far calls; data: a hot working
        // set plus streams large enough to thrash every level.
        if (rng.chance(0.5)) {
            const uint64_t addr =
                0x400000 + hotColdAddress(rng, 0.8, 400, 1 << 22);
            ASSERT_EQ(h.l1i.access(addr), l1i.access(addr)) << i;
        } else {
            const uint64_t addr =
                0x80000000 + hotColdAddress(rng, 0.6, 4000, 1 << 23);
            ASSERT_EQ(h.l1d.access(addr), l1d.access(addr)) << i;
        }
    }
    const std::pair<const Cache *, const NaiveLruCache *> levels[] = {
        {&h.l1i, &l1i}, {&h.l1d, &l1d}, {&h.l2, &l2}, {&h.llc, &llc}};
    for (const auto &[real, naive] : levels) {
        SCOPED_TRACE(real->name());
        EXPECT_EQ(real->hits(), naive->hits);
        EXPECT_EQ(real->misses(), naive->misses);
        EXPECT_GT(real->misses(), 0u);
    }
}

// --------------------------------------------------------- core model

namespace {

/** Synthesize a simple branchy trace: `n` blocks of ALU work ending
 *  in a conditional branch whose outcome comes from `gen`. */
std::vector<TraceRecord>
branchyTrace(uint64_t n, unsigned work_per_branch,
             const std::function<bool(uint64_t)> &gen)
{
    std::vector<TraceRecord> trace;
    uint64_t ip = 0x400000;
    for (uint64_t i = 0; i < n; ++i) {
        for (unsigned w = 0; w < work_per_branch; ++w) {
            TraceRecord r;
            r.ip = ip;
            r.fallthrough = ip + 4;
            r.cls = InstrClass::Alu;
            r.hasDst = true;
            r.dst = static_cast<uint8_t>(w % 8);
            r.numSrc = 1;
            r.src[0] = static_cast<uint8_t>((w + 1) % 8);
            trace.push_back(r);
            ip += 4;
        }
        TraceRecord br;
        br.ip = ip;
        br.fallthrough = ip + 4;
        br.cls = InstrClass::CondBranch;
        br.taken = gen(i);
        br.target = 0x400000;
        br.numSrc = 2;
        br.src[0] = 0;
        br.src[1] = 1;
        trace.push_back(br);
        ip = br.taken ? 0x400000 + (i % 7) * 64 : ip + 4;
    }
    return trace;
}

/** Run a trace through predictor + core; return counters. */
PerfCounters
simulate(const std::vector<TraceRecord> &trace, BranchPredictor &bp,
         const CoreConfig &cfg)
{
    PredictorSim sim(bp, false);
    CoreModel core(cfg, sim);
    for (const auto &r : trace) {
        sim.onRecord(r);
        core.onRecord(r);
    }
    return core.counters();
}

} // namespace

TEST(CoreModel, IpcBoundedByWidth)
{
    auto trace = branchyTrace(2000, 8, [](uint64_t) { return true; });
    PerfectPredictor bp;
    const PerfCounters c = simulate(trace, bp, CoreConfig::skylake());
    EXPECT_GT(c.ipc(), 0.5);
    EXPECT_LE(c.ipc(), CoreConfig::skylake().fetchWidth);
    EXPECT_EQ(c.instructions, trace.size());
}

TEST(CoreModel, PerfectBeatsBadPredictor)
{
    Rng rng(3);
    auto trace =
        branchyTrace(3000, 8, [&](uint64_t) { return rng.chance(0.5); });
    PerfectPredictor perfect;
    StaticPredictor bad(true);
    const double ipc_perfect =
        simulate(trace, perfect, CoreConfig::skylake()).ipc();
    const double ipc_bad =
        simulate(trace, bad, CoreConfig::skylake()).ipc();
    EXPECT_GT(ipc_perfect, ipc_bad * 1.3);
}

TEST(CoreModel, WiderPipelineHelpsPerfectMore)
{
    // The Fig. 1 mechanism: pipeline scaling is worth much more under
    // perfect prediction than under a poor predictor.
    Rng rng(7);
    auto trace =
        branchyTrace(4000, 10, [&](uint64_t) { return rng.chance(0.5); });
    const CoreConfig base = CoreConfig::skylake();
    const CoreConfig wide = base.scaled(8);

    PerfectPredictor p1;
    PerfectPredictor p2;
    StaticPredictor b1(true);
    StaticPredictor b2(true);
    const double perfect_gain = simulate(trace, p2, wide).ipc() /
                                simulate(trace, p1, base).ipc();
    const double bad_gain = simulate(trace, b2, wide).ipc() /
                            simulate(trace, b1, base).ipc();
    EXPECT_GT(perfect_gain, bad_gain);
}

TEST(CoreModel, MispredictsCounted)
{
    auto trace = branchyTrace(100, 4, [](uint64_t i) { return i % 2; });
    StaticPredictor bp(true);
    const PerfCounters c = simulate(trace, bp, CoreConfig::skylake());
    EXPECT_EQ(c.condBranches, 100u);
    EXPECT_EQ(c.mispredicts, 50u);
}

// ------------------------------------------- flush-cycle accounting

TEST(CoreModel, FlushAccountingWithoutFrontend)
{
    // Regression contract: with no frontend wired in, every flush is
    // a direction flush and the books balance exactly —
    // directionFlushCycles == mispredicts * redirectPenalty, with the
    // target-side ledger identically zero.
    auto trace = branchyTrace(500, 4, [](uint64_t i) { return i % 3; });
    StaticPredictor bp(true);
    const CoreConfig cfg = CoreConfig::skylake();
    const PerfCounters c = simulate(trace, bp, cfg);
    EXPECT_GT(c.mispredicts, 0u);
    EXPECT_EQ(c.directionFlushCycles, c.mispredicts * cfg.redirectPenalty);
    EXPECT_EQ(c.targetMispredicts, 0u);
    EXPECT_EQ(c.targetFlushCycles, 0u);
    EXPECT_EQ(c.ftqStallCycles, 0u);
}

TEST(CoreModel, FlushAccountingSplitsDirectionAndTarget)
{
    // A trace mixing conditional branches with returns that have no
    // matching calls: the frontend attributes those to the RAS, the
    // core splits the flush ledger by cause, and the two causes sum
    // exactly (no double counting: a record is either a CondBranch or
    // a Ret, never both).
    std::vector<TraceRecord> trace =
        branchyTrace(200, 4, [](uint64_t i) { return i % 2; });
    uint64_t ip = 0x600000;
    for (int i = 0; i < 50; ++i) {
        TraceRecord ret;
        ret.ip = ip;
        ret.fallthrough = ip + 4;
        ret.target = 0x700000;
        ret.cls = InstrClass::Ret;
        ret.taken = true;
        trace.push_back(ret);
        ip += 64;
    }

    StaticPredictor bp(true);
    PredictorSim sim(bp, false);
    FrontendConfig fcfg;
    FrontendModel fe(fcfg);
    const CoreConfig cfg = CoreConfig::skylake();
    CoreModel core(cfg, sim, &fe);
    for (const auto &r : trace) {
        sim.onRecord(r);
        fe.onRecord(r);
        core.onRecord(r);
    }
    const PerfCounters &c = core.counters();

    EXPECT_EQ(c.mispredicts, 100u);          // half of 200 conditionals
    EXPECT_EQ(c.targetMispredicts, 50u);     // every orphan return
    EXPECT_EQ(c.directionFlushCycles,
              c.mispredicts * cfg.redirectPenalty);
    EXPECT_EQ(c.targetFlushCycles,
              c.targetMispredicts * cfg.redirectPenalty);
    EXPECT_GT(c.targetMpki(), 0.0);
}

TEST(CoreModel, FrontendStallsReduceIpc)
{
    // Thousands of distinct taken-branch IPs thrash a tiny BTB; with
    // an empty FTQ the bubbles must show up as lost IPC vs. the same
    // trace timed without a frontend.
    std::vector<TraceRecord> trace;
    uint64_t ip = 0x400000;
    for (uint64_t i = 0; i < 3000; ++i) {
        TraceRecord j;
        j.ip = ip;
        j.fallthrough = ip + 4;
        j.target = ip + 4096 + (i % 977) * 64;
        j.cls = InstrClass::Jump;
        j.taken = true;
        trace.push_back(j);
        ip = j.target;
    }

    StaticPredictor bp(true);
    PredictorSim sim(bp, false);
    FrontendConfig fcfg;
    fcfg.btbSets = 16;
    fcfg.btbWays = 1;
    fcfg.btbBanks = 1;
    fcfg.ftqDepth = 2;
    FrontendModel fe(fcfg);
    CoreModel withFe(CoreConfig::skylake(), sim, &fe);
    CoreModel withoutFe(CoreConfig::skylake(), sim);
    for (const auto &r : trace) {
        sim.onRecord(r);
        fe.onRecord(r);
        withFe.onRecord(r);
        withoutFe.onRecord(r);
    }
    EXPECT_GT(fe.btbMisses(), 1000u);
    EXPECT_GT(withFe.counters().ftqStallCycles, 0u);
    EXPECT_LT(withFe.counters().ipc(), withoutFe.counters().ipc());
}

TEST(CoreModel, ScalingMonotoneForPerfect)
{
    auto trace = branchyTrace(3000, 10, [](uint64_t) { return true; });
    double prev = 0.0;
    for (unsigned scale : {1u, 2u, 4u, 8u}) {
        PerfectPredictor bp;
        const double ipc =
            simulate(trace, bp, CoreConfig::skylake().scaled(scale))
                .ipc();
        EXPECT_GE(ipc, prev * 0.99) << "scale " << scale;
        prev = ipc;
    }
}

TEST(CoreConfigTest, ScaledMultipliesCapacities)
{
    const CoreConfig base = CoreConfig::skylake();
    const CoreConfig s4 = base.scaled(4);
    EXPECT_EQ(s4.fetchWidth, base.fetchWidth * 4);
    EXPECT_EQ(s4.robSize, base.robSize * 4);
    EXPECT_EQ(s4.lqSize, base.lqSize * 4);
    // Depths must NOT scale.
    EXPECT_EQ(s4.frontendDepth, base.frontendDepth);
    EXPECT_EQ(s4.redirectPenalty, base.redirectPenalty);
}

TEST(CoreModel, LongDependencyChainLimitsIpc)
{
    // Every instruction depends on the previous one: IPC ~ 1 even on
    // a wide machine.
    std::vector<TraceRecord> trace;
    for (uint64_t i = 0; i < 2000; ++i) {
        TraceRecord r;
        r.ip = 0x400000 + i * 4;
        r.fallthrough = r.ip + 4;
        r.cls = InstrClass::Alu;
        r.hasDst = true;
        r.dst = 1;
        r.numSrc = 1;
        r.src[0] = 1;
        trace.push_back(r);
    }
    PerfectPredictor bp;
    const double ipc =
        simulate(trace, bp, CoreConfig::skylake().scaled(8)).ipc();
    EXPECT_LT(ipc, 1.2);
}

TEST(CoreModel, IssueWindowNeverClampsOnPaperConfigs)
{
    // IssueWindow::alloc clamps a request beyond its cycle window into
    // the window, which would time that instruction approximately.
    // Pin that it never happens on the paper's shapes: SPEC-like, LCF
    // and the interpreter workload (with the default frontend), at
    // every scale of the IPC studies, at fig1's default budget.
    // mcf_like's long miss chains are the first to clamp when the
    // window shrinks.
    const std::vector<unsigned> scales{1, 2, 4, 8, 16, 32};
    for (const char *name :
         {"gcc_like", "mcf_like", "rdbms", "interp_like"}) {
        for (const char *predictor : {"perfect", "tage-sc-l-8KB"}) {
            SCOPED_TRACE(testing::Message() << name << " " << predictor);
            auto bp = makePredictor(predictor);
            PredictorSim sim(*bp, /*collect_per_branch=*/false);
            FrontendModel fe{FrontendConfig{}};
            const bool with_fe = std::string(name) == "interp_like";
            MemorySide memory(sim, with_fe ? &fe : nullptr);
            CoreModel core(CoreConfig::skylake(), scales, memory);
            std::vector<TraceSink *> sinks{&sim};
            if (with_fe)
                sinks.push_back(&fe);
            sinks.insert(sinks.end(), {&memory, &core});
            runWorkloadTrace(findWorkload(name), 0, sinks, 2000000);

            for (size_t s = 0; s < scales.size(); ++s) {
                SCOPED_TRACE(testing::Message() << scales[s] << "x");
                EXPECT_EQ(core.counters(s).instructions, 2000000u);
                EXPECT_EQ(core.issueClamps(s), 0u);
            }
        }
    }
}

// ------------------------------------- shared vs owning memory side

namespace {

/**
 * The memory rule written out once more, as the pre-split core model
 * stated it: a new fetch line probes the L1I, a load probes the L1D,
 * and a direction or (with a frontend) target flush forgets the fetch
 * line. Checks a MemorySide's latch against it record by record.
 */
class ReferenceMemory : public TraceSink
{
  public:
    ReferenceMemory(const PredictorSim &bp_, const FrontendModel *fe_,
                    const MemorySide &checked_)
        : bp(bp_), fe(fe_), checked(checked_)
    {}

    void
    onRecord(const TraceRecord &rec) override
    {
        unsigned icache = 0;
        if ((rec.ip >> 6) != lastLine) {
            icache = caches.l1i.access(rec.ip);
            lastLine = rec.ip >> 6;
        }
        unsigned load = 0;
        if (rec.cls == InstrClass::Load)
            load = caches.l1d.access(rec.memAddr);
        if (rec.isCondBranch()) {
            if (bp.lastMispredicted())
                lastLine = ~0ull;
        } else if (fe != nullptr && fe->lastTargetMispredict()) {
            lastLine = ~0ull;
        }
        if (checked.last().icacheExtra != icache ||
            checked.last().loadLatency != load)
            ++mismatches;
    }

    CacheHierarchy caches;
    uint64_t mismatches = 0;

  private:
    const PredictorSim &bp;
    const FrontendModel *fe;
    const MemorySide &checked;
    uint64_t lastLine = ~0ull;
};

void
expectSameCounters(const PerfCounters &a, const PerfCounters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.targetMispredicts, b.targetMispredicts);
    EXPECT_EQ(a.ftqStallCycles, b.ftqStallCycles);
    EXPECT_EQ(a.directionFlushCycles, b.directionFlushCycles);
    EXPECT_EQ(a.targetFlushCycles, b.targetFlushCycles);
}

void
expectSameCaches(const CacheHierarchy &a, const CacheHierarchy &b)
{
    const std::pair<const Cache *, const Cache *> levels[] = {
        {&a.l1i, &b.l1i}, {&a.l1d, &b.l1d}, {&a.l2, &b.l2},
        {&a.llc, &b.llc}};
    for (const auto &[x, y] : levels) {
        SCOPED_TRACE(x->name());
        EXPECT_EQ(x->hits(), y->hits());
        EXPECT_EQ(x->misses(), y->misses());
    }
}

} // namespace

TEST(MemorySide, SharedMatchesOwningAtEveryScale)
{
    // One multi-scale core over a shared memory side must time exactly
    // like six single-scale cores that each own one, with and without
    // a frontend, on every counter; the indirect-heavy workloads
    // exercise the target-flush refetch rule and the frontend's
    // counters, which the IPC benches never wire in.
    const std::vector<unsigned> scales{1, 2, 4, 8, 16, 32};
    const CoreConfig base = CoreConfig::skylake();
    for (const char *name : {"vcall", "interp_like"}) {
        for (bool with_fe : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << name << " frontend " << with_fe);
            auto bp = makePredictor("tage-sc-l-8KB");
            PredictorSim sim(*bp, /*collect_per_branch=*/false);
            FrontendModel fe{FrontendConfig{}};
            const FrontendModel *wired = with_fe ? &fe : nullptr;
            MemorySide shared(sim, wired);
            ReferenceMemory reference(sim, wired, shared);
            CoreModel sharing(base, scales, shared);

            std::vector<TraceSink *> sinks{&sim, &fe, &shared,
                                           &reference, &sharing};
            std::vector<std::unique_ptr<CoreModel>> owning;
            for (unsigned scale : scales) {
                owning.push_back(std::make_unique<CoreModel>(
                    base.scaled(scale), sim, wired));
                sinks.push_back(owning.back().get());
            }
            runWorkloadTrace(findWorkload(name), 0, sinks, 150000);

            EXPECT_EQ(reference.mismatches, 0u);
            expectSameCaches(shared.caches(), reference.caches);
            EXPECT_GT(shared.caches().l1d.misses(), 0u);
            EXPECT_EQ(&sharing.memory(), &shared);
            EXPECT_EQ(sharing.scales(), scales);
            for (size_t s = 0; s < scales.size(); ++s) {
                SCOPED_TRACE(testing::Message() << scales[s] << "x");
                EXPECT_NE(&owning[s]->memory(), &shared);
                expectSameCounters(sharing.counters(s),
                                   owning[s]->counters());
                expectSameCaches(owning[s]->memory().caches(),
                                 shared.caches());
            }
            if (with_fe) {
                const PerfCounters c = sharing.counters(0);
                EXPECT_GT(c.targetMispredicts, 0u);
                EXPECT_GT(c.ftqStallCycles, 0u);
                EXPECT_GT(c.targetFlushCycles, 0u);
            }
        }
    }
}
