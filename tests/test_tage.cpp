/**
 * @file
 * TAGE and TAGE-SC-L tests: configuration invariants, learning
 * behavior across pattern families, allocation instrumentation, and
 * parameterized sweeps over storage presets.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "bp/tage.hpp"
#include "bp/tagescl.hpp"
#include "util/rng.hpp"

using namespace bpnsp;

namespace {

double
trainAndMeasure(BranchPredictor &bp,
                const std::function<bool(uint64_t)> &outcome,
                uint64_t warmup, uint64_t measure,
                uint64_t ip = 0x400500)
{
    uint64_t correct = 0;
    for (uint64_t i = 0; i < warmup + measure; ++i) {
        const bool taken = outcome(i);
        const bool pred = bp.predict(ip, taken);
        bp.update(ip, taken, pred, ip + 64);
        if (i >= warmup && pred == taken)
            ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(measure);
}

} // namespace

// ------------------------------------------------------------- config

TEST(TageConfig, GeometricLengthsMonotone)
{
    const TageConfig cfg = TageConfig::preset(8);
    const auto lengths = cfg.histLengths();
    ASSERT_EQ(lengths.size(), cfg.numTables);
    EXPECT_EQ(lengths.front(), cfg.minHist);
    EXPECT_EQ(lengths.back(), cfg.maxHist);
    for (size_t i = 1; i < lengths.size(); ++i)
        EXPECT_GT(lengths[i], lengths[i - 1]);
}

TEST(TageConfig, PresetHistoryLimits)
{
    // Paper Sec. IV-A: 8KB tracks up to 1,000; 64KB up to 3,000.
    EXPECT_EQ(TageConfig::preset(8).maxHist, 1000u);
    EXPECT_EQ(TageConfig::preset(64).maxHist, 3000u);
    EXPECT_EQ(TageConfig::preset(1024).maxHist, 3000u);
}

TEST(TageConfig, ScaledPresetsGrowEntries)
{
    const TageConfig c64 = TageConfig::preset(64);
    const TageConfig c256 = TageConfig::preset(256);
    for (unsigned t = 0; t < c64.numTables; ++t)
        EXPECT_EQ(c256.log2Entries[t], c64.log2Entries[t] + 2);
}

// ------------------------------------------------------------ learning

TEST(Tage, LearnsBias)
{
    TagePredictor bp(TageConfig::preset(8));
    EXPECT_GT(trainAndMeasure(bp, [](uint64_t) { return true; }, 64,
                              500),
              0.99);
}

TEST(Tage, LearnsLongPeriodicPattern)
{
    // Period-24 pattern: needs real history matching, beyond bimodal
    // or short-history tables.
    TagePredictor bp(TageConfig::preset(8));
    const double acc = trainAndMeasure(
        bp, [](uint64_t i) { return (i % 24) < 9; }, 6000, 2000);
    EXPECT_GT(acc, 0.95);
}

TEST(Tage, NearChanceOnRandom)
{
    TagePredictor bp(TageConfig::preset(8));
    Rng rng(123);
    const double acc = trainAndMeasure(
        bp, [&](uint64_t) { return rng.chance(0.5); }, 4000, 4000);
    EXPECT_GT(acc, 0.38);
    EXPECT_LT(acc, 0.62);
}

TEST(Tage, ExploitsCrossBranchCorrelation)
{
    // Branch B repeats branch A's outcome; after warmup TAGE should
    // predict B from global history containing A.
    TagePredictor bp(TageConfig::preset(8));
    Rng rng(9);
    uint64_t correct = 0;
    uint64_t measured = 0;
    bool a_out = false;
    for (int i = 0; i < 6000; ++i) {
        a_out = rng.chance(0.5);
        bool pred = bp.predict(0xA00, a_out);
        bp.update(0xA00, a_out, pred, 0xA40);
        const bool b_out = a_out;   // perfectly correlated
        pred = bp.predict(0xB00, b_out);
        bp.update(0xB00, b_out, pred, 0xB40);
        if (i >= 3000) {
            ++measured;
            correct += (pred == b_out);
        }
    }
    EXPECT_GT(static_cast<double>(correct) /
                  static_cast<double>(measured),
              0.9);
}

TEST(Tage, HandlesManyBranchesWithoutAliasCollapse)
{
    TagePredictor bp(TageConfig::preset(8));
    // 256 branches, each strongly biased in a fixed direction.
    uint64_t correct = 0;
    uint64_t total = 0;
    for (int round = 0; round < 60; ++round) {
        for (uint64_t b = 0; b < 256; ++b) {
            const uint64_t ip = 0x400000 + b * 4;
            const bool taken = (b % 2) == 0;
            const bool pred = bp.predict(ip, taken);
            bp.update(ip, taken, pred, ip + 64);
            if (round >= 30) {
                ++total;
                correct += (pred == taken);
            }
        }
    }
    EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total),
              0.97);
}

// ----------------------------------------------------- instrumentation

namespace {

class CountingAllocListener : public TageAllocationListener
{
  public:
    uint64_t events = 0;
    uint64_t lastIp = 0;

    void
    onAllocation(uint64_t ip, unsigned, uint64_t, uint64_t) override
    {
        ++events;
        lastIp = ip;
    }
};

} // namespace

TEST(Tage, AllocationListenerFires)
{
    TagePredictor bp(TageConfig::preset(8));
    CountingAllocListener listener;
    bp.setAllocationListener(&listener);
    Rng rng(31);
    // A random branch mispredicts constantly, forcing allocations.
    for (int i = 0; i < 2000; ++i) {
        const bool taken = rng.chance(0.5);
        const bool pred = bp.predict(0xE00, taken);
        bp.update(0xE00, taken, pred, 0xE40);
    }
    EXPECT_GT(listener.events, 100u);
    EXPECT_EQ(listener.lastIp, 0xE00u);
}

TEST(Tage, RandomBranchAllocatesMoreThanBiasedBranch)
{
    // The Sec. IV-A churn signature: H2Ps consume far more
    // allocations than easy branches.
    auto countAllocs = [](const std::function<bool(uint64_t)> &gen) {
        TagePredictor bp(TageConfig::preset(8));
        CountingAllocListener listener;
        bp.setAllocationListener(&listener);
        for (uint64_t i = 0; i < 5000; ++i) {
            const bool taken = gen(i);
            const bool pred = bp.predict(0xF00, taken);
            bp.update(0xF00, taken, pred, 0xF40);
        }
        return listener.events;
    };
    Rng rng(17);
    const uint64_t random_allocs =
        countAllocs([&](uint64_t) { return rng.chance(0.5); });
    const uint64_t biased_allocs =
        countAllocs([](uint64_t) { return true; });
    EXPECT_GT(random_allocs, 20 * std::max<uint64_t>(1, biased_allocs));
}

TEST(Tage, AllocationListenerMustAttachBeforeTheFirstUpdate)
{
    // Owner IPs are kept only from attach time, so a late listener
    // would see wrong evicted_ip values; attaching late is refused.
    CountingAllocListener listener;
    EXPECT_DEATH(
        {
            TagePredictor bp(TageConfig::preset(8));
            bp.update(0x400, true, bp.predict(0x400, true), 0x440);
            bp.setAllocationListener(&listener);
        },
        "before the first update");
}

TEST(Tage, EntriesAllocatedByIpZeroAreVisible)
{
    // The valid bit, not a nonzero owner IP, marks an allocated entry,
    // so a branch at IP 0 learns from its tagged entries like any
    // other: a period-24 pattern needs them.
    TagePredictor bp(TageConfig::preset(8));
    const double acc = trainAndMeasure(
        bp, [](uint64_t i) { return (i % 24) < 9; }, 6000, 2000, 0);
    EXPECT_GT(acc, 0.95);
}

// ------------------------------------------------------------ storage

TEST(TageStorage, PresetBitsArePinned)
{
    // Fig. 7's storage axis. The valid bit and the owner IPs are
    // simulation metadata, so they must never move these counts.
    EXPECT_EQ(TagePredictor(TageConfig::preset(8)).storageBits(), 86008u);
    EXPECT_EQ(TagePredictor(TageConfig::preset(64)).storageBits(),
              400328u);
    const std::pair<unsigned, uint64_t> scl[] = {
        {8, 112036},       {64, 456692},      {128, 854004},
        {256, 1648628},    {512, 3237876},    {1024, 6416372}};
    for (const auto &[kb, bits] : scl) {
        EXPECT_EQ(TageSclPredictor(TageSclConfig::preset(kb)).storageBits(),
                  bits)
            << kb << "KB";
    }
}

// ----------------------------------------------------------- ensemble

TEST(TageScl, LoopComponentFixesCountedLoops)
{
    // A 37-iteration loop: plain TAGE-8KB history can struggle at the
    // exit; the loop predictor locks the trip count.
    auto loopPattern = [](uint64_t i) { return (i % 37) != 36; };
    TageSclConfig with_loop = TageSclConfig::preset(8);
    with_loop.enableSc = false;
    TageSclConfig without_loop = with_loop;
    without_loop.enableLoop = false;

    TageSclPredictor bp_with(with_loop);
    TageSclPredictor bp_without(without_loop);
    const double acc_with =
        trainAndMeasure(bp_with, loopPattern, 4000, 2000);
    const double acc_without =
        trainAndMeasure(bp_without, loopPattern, 4000, 2000);
    EXPECT_GE(acc_with + 1e-9, acc_without);
    EXPECT_GT(acc_with, 0.99);
}

TEST(TageScl, ScCorrectsStaticBias)
{
    // A 70/30 branch with random outcomes: TAGE alone oscillates on
    // noise; SC's bias tables push toward the majority.
    Rng rng(41);
    auto biased = [&](uint64_t) { return rng.chance(0.7); };
    TageSclPredictor bp(TageSclConfig::preset(8));
    const double acc = trainAndMeasure(bp, biased, 4000, 4000);
    EXPECT_GT(acc, 0.62);   // must approach the 0.70 ceiling
}

TEST(TageScl, NameIncludesPreset)
{
    EXPECT_EQ(TageSclPredictor(TageSclConfig::preset(8)).name(),
              "tage-sc-l-8KB");
    EXPECT_EQ(TageSclPredictor(TageSclConfig::preset(64)).name(),
              "tage-sc-l-64KB");
}

// --------------------------------------------------- parameterized sweep

class TagePresetTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TagePresetTest, LearnsCanonicalPatterns)
{
    TageSclPredictor bp(TageSclConfig::preset(GetParam()));
    // Bias.
    EXPECT_GT(trainAndMeasure(bp, [](uint64_t) { return true; }, 100,
                              500, 0x100),
              0.99);
    // Alternation.
    EXPECT_GT(trainAndMeasure(
                  bp, [](uint64_t i) { return i % 2 == 0; }, 500, 500,
                  0x200),
              0.97);
    // Period 12.
    EXPECT_GT(trainAndMeasure(
                  bp, [](uint64_t i) { return (i % 12) < 5; }, 3000,
                  1000, 0x300),
              0.95);
}

TEST_P(TagePresetTest, StorageGrowsWithPreset)
{
    TageSclPredictor bp(TageSclConfig::preset(GetParam()));
    // All presets must report nonzero storage within 2x of nominal.
    EXPECT_GT(bp.storageKB(), GetParam() * 0.5);
    EXPECT_LT(bp.storageKB(), GetParam() * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Presets, TagePresetTest,
                         ::testing::Values(8u, 64u, 128u, 256u, 512u,
                                           1024u));
