/**
 * @file
 * Cross-module integration tests: full paper-methodology pipelines at
 * reduced scale, checking the qualitative findings the benches
 * reproduce at full scale.
 */

#include <gtest/gtest.h>

#include <memory>

#include "analysis/alloc_stats.hpp"
#include "analysis/h2p.hpp"
#include "analysis/heavy_hitters.hpp"
#include "analysis/recurrence.hpp"
#include "bp/factory.hpp"
#include "bp/oracle.hpp"
#include "bp/tagescl.hpp"
#include "core/runner.hpp"
#include "tracestore/store.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

TEST(Integration, TageSclBeatsBimodalAcrossSuite)
{
    for (const char *name : {"leela_like", "xz_like", "omnetpp_like"}) {
        auto tage = makePredictor("tage-sc-l-8KB");
        auto bimodal = makePredictor("bimodal");
        PredictorSim tage_sim(*tage, false);
        PredictorSim bim_sim(*bimodal, false);
        runTrace(findWorkload(name).build(0), {&tage_sim, &bim_sim},
                 500000);
        EXPECT_GT(tage_sim.accuracy(), bim_sim.accuracy()) << name;
    }
}

TEST(Integration, HeavyHittersDominateMcf)
{
    // Paper Fig. 2 / Table I: a handful of H2Ps carries most of the
    // mispredictions in mcf.
    auto bp = makePredictor("tage-sc-l-8KB");
    PredictorSim sim(*bp);
    runTrace(findWorkload("mcf_like").build(0), {&sim}, 3000000);

    const H2pCriteria criteria = H2pCriteria{}.scaledTo(3000000);
    std::unordered_set<uint64_t> h2ps;
    for (const auto &[ip, c] : sim.perBranch()) {
        if (criteria.matches(c))
            h2ps.insert(ip);
    }
    const auto ranked =
        rankHeavyHitters(sim.perBranch(), h2ps, sim.condMispreds());
    ASSERT_GE(ranked.size(), 3u);
    EXPECT_GT(topNMispredFraction(ranked, 5), 0.5);
}

TEST(Integration, H2pOverlapAcrossInputs)
{
    // Paper Table I: H2Ps recur across application inputs.
    const Workload w = findWorkload("leela_like");
    std::vector<std::unordered_set<uint64_t>> sets;
    const H2pCriteria criteria = H2pCriteria{}.scaledTo(400000);
    for (size_t input = 0; input < 3; ++input) {
        auto bp = makePredictor("tage-sc-l-8KB");
        PredictorSim sim(*bp);
        runTrace(w.build(input), {&sim}, 400000);
        std::unordered_set<uint64_t> h2ps;
        for (const auto &[ip, c] : sim.perBranch()) {
            if (criteria.matches(c))
                h2ps.insert(ip);
        }
        sets.push_back(std::move(h2ps));
    }
    const H2pOverlap overlap = overlapH2ps(sets);
    EXPECT_GT(overlap.inThreePlus, 5u);   // stable H2Ps exist
}

TEST(Integration, AllocationChurnConcentratesOnH2ps)
{
    // Paper Sec. IV-A: H2Ps consume allocations out of proportion.
    TageSclPredictor bp(TageSclConfig::preset(8));
    AllocationStatsCollector alloc;
    bp.tage().setAllocationListener(&alloc);
    PredictorSim sim(bp);
    runTrace(findWorkload("mcf_like").build(0), {&sim}, 800000);

    const H2pCriteria criteria = H2pCriteria{}.scaledTo(800000);
    std::unordered_set<uint64_t> h2ps;
    std::unordered_set<uint64_t> easy;
    for (const auto &[ip, c] : sim.perBranch()) {
        if (criteria.matches(c))
            h2ps.insert(ip);
        else if (c.execs > 100)
            easy.insert(ip);
    }
    ASSERT_FALSE(h2ps.empty());
    ASSERT_FALSE(easy.empty());
    const auto h2p_medians = alloc.groupMedians(h2ps);
    const auto easy_medians = alloc.groupMedians(easy);
    EXPECT_GT(h2p_medians.medianAllocations,
              10 * (easy_medians.medianAllocations + 1));
    // Churn: allocations exceed unique entries for H2Ps.
    EXPECT_GT(h2p_medians.medianAllocations,
              h2p_medians.medianUniqueEntries);
}

TEST(Integration, StorageScalingShowsDiminishingReturnsOnLcf)
{
    // Paper Fig. 7: growing TAGE-SC-L storage helps LCF applications,
    // but with diminishing returns — the same 8x step buys less at
    // the top of the range than at the bottom.
    const Program p = findWorkload("game").build(0);
    auto bp8 = makePredictor("tage-sc-l-8KB");
    auto bp64 = makePredictor("tage-sc-l-64KB");
    auto bp256 = makePredictor("tage-sc-l-256KB");
    auto bp1024 = makePredictor("tage-sc-l-1024KB");
    PredictorSim s8(*bp8, false);
    PredictorSim s64(*bp64, false);
    PredictorSim s256(*bp256, false);
    PredictorSim s1024(*bp1024, false);
    runTrace(p, {&s8, &s64, &s256, &s1024}, 2000000);
    const double gain_8_64 = s64.accuracy() - s8.accuracy();
    const double gain_256_1024 = s1024.accuracy() - s256.accuracy();
    EXPECT_GT(gain_8_64, 0.0);
    EXPECT_LT(gain_256_1024, gain_8_64);
    // And storage alone never reaches perfect prediction: a large
    // residual misprediction rate remains even at 1024KB.
    EXPECT_LT(s1024.accuracy(), 0.9);
}

TEST(Integration, RareBranchesRemainAfterPerfectingHotOnes)
{
    // Paper Fig. 8 mechanism: LCF apps keep mispredicting even when
    // every branch with >N executions is predicted perfectly.
    const Program p = findWorkload("game").build(0);

    // Profile execution counts.
    auto profile_bp = makePredictor("tage-sc-l-8KB");
    PredictorSim profile(*profile_bp);
    runTrace(p, {&profile}, 600000);
    std::unordered_set<uint64_t> hot;
    for (const auto &[ip, c] : profile.perBranch()) {
        if (c.execs > 100)
            hot.insert(ip);
    }
    ASSERT_FALSE(hot.empty());

    auto base_bp = makePredictor("tage-sc-l-8KB");
    PredictorSim base(*base_bp, false);
    PerfectOnSetPredictor oracle_bp(makePredictor("tage-sc-l-8KB"),
                                    hot, ">100");
    PredictorSim oracle(oracle_bp, false);
    runTrace(p, {&base, &oracle}, 600000);
    // Even with all hot branches perfect, mispredictions remain
    // (the rare-branch tail).
    EXPECT_GT(oracle.condMispreds(), base.condMispreds() / 10);
    EXPECT_LT(oracle.condMispreds(), base.condMispreds());
}

TEST(Integration, RecurrenceIntervalsLongInLcf)
{
    // Paper Fig. 9: LCF median recurrence intervals reach far beyond
    // any on-BPU history length. `game` has the flattest call mix and
    // thus the longest intervals.
    RecurrenceCollector rec;
    runTrace(findWorkload("game").build(0), {&rec}, 1000000);
    const auto medians = rec.medians();
    uint64_t beyond_10k = 0;
    for (const auto &[ip, m] : medians)
        beyond_10k += (m > 10000);
    EXPECT_GT(static_cast<double>(beyond_10k) /
                  static_cast<double>(medians.size()),
              0.25);
}

TEST(Integration, TraceFileRoundTripPreservesPredictorResults)
{
    // Capture a workload trace into a store, replay it, and check the
    // predictor sees the identical stream (same counts).
    const Program p = findWorkload("xz_like").build(0);
    const std::string path =
        std::string(::testing::TempDir()) + "bpnsp_integ.bpt";
    auto bp = makePredictor("gshare");
    PredictorSim live(*bp, false);
    {
        TraceStoreWriter writer(path);
        runTrace(p, {&writer, &live}, 200000);
        ASSERT_TRUE(writer.status().ok()) << writer.status().str();
    }
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    auto bp2 = makePredictor("gshare");
    PredictorSim replayed(*bp2, false);
    ASSERT_TRUE(reader->replay(replayed, 0).ok());
    EXPECT_EQ(replayed.instructions(), live.instructions());
    EXPECT_EQ(replayed.condExecs(), live.condExecs());
    EXPECT_EQ(replayed.condMispreds(), live.condMispreds());
    std::remove(path.c_str());
}
