/**
 * @file
 * Behavioral tests for the predictor zoo (excluding TAGE, which has
 * its own file): each predictor must learn the pattern families its
 * design targets, and must not read the oracle bit.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "bp/factory.hpp"
#include "bp/helper.hpp"
#include "bp/loop.hpp"
#include "bp/oracle.hpp"
#include "bp/sc.hpp"
#include "bp/sim.hpp"
#include "bp/simple.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

using namespace bpnsp;

namespace {

/**
 * Drive a predictor with a generated outcome stream for one branch IP
 * and return accuracy over the final `measure` executions (training
 * happens during the warmup prefix).
 */
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

// -------------------------------------------------------------- static

TEST(StaticPredictor, ConstantDirection)
{
    StaticPredictor taken(true);
    StaticPredictor not_taken(false);
    EXPECT_TRUE(taken.predict(1, false));
    EXPECT_FALSE(not_taken.predict(1, true));
    EXPECT_EQ(taken.storageBits(), 0u);
}

// ------------------------------------------------------------- bimodal

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor bp(10);
    const double acc =
        trainAndMeasure(bp, [](uint64_t) { return true; }, 10, 100);
    EXPECT_GT(acc, 0.99);
}

TEST(Bimodal, TracksPerBranchDirections)
{
    BimodalPredictor bp(12);
    // Branch A always taken, branch B never taken.
    for (int i = 0; i < 50; ++i) {
        bool p = bp.predict(0xA00, true);
        bp.update(0xA00, true, p, 0);
        p = bp.predict(0xB00, false);
        bp.update(0xB00, false, p, 0);
    }
    EXPECT_TRUE(bp.predict(0xA00, true));
    EXPECT_FALSE(bp.predict(0xB00, false));
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor bp(10);
    const double acc = trainAndMeasure(
        bp, [](uint64_t i) { return i % 2 == 0; }, 200, 200);
    EXPECT_LT(acc, 0.7);   // bimodal has no history
}

TEST(Bimodal, StorageMatchesConfig)
{
    EXPECT_EQ(BimodalPredictor(10, 2).storageBits(), 2048u);
}

// -------------------------------------------------------------- gshare

TEST(Gshare, LearnsAlternation)
{
    GsharePredictor bp;
    const double acc = trainAndMeasure(
        bp, [](uint64_t i) { return i % 2 == 0; }, 500, 500);
    EXPECT_GT(acc, 0.95);
}

TEST(Gshare, LearnsShortPeriodicPattern)
{
    GsharePredictor bp;
    const double acc = trainAndMeasure(
        bp, [](uint64_t i) { return i % 5 < 2; }, 2000, 1000);
    EXPECT_GT(acc, 0.9);
}

TEST(Gshare, RandomStreamNearChance)
{
    GsharePredictor bp;
    Rng rng(77);
    const double acc = trainAndMeasure(
        bp, [&](uint64_t) { return rng.chance(0.5); }, 2000, 2000);
    EXPECT_LT(acc, 0.62);
    EXPECT_GT(acc, 0.38);
}

// ---------------------------------------------------------------- loop

TEST(Loop, PredictsExactTripCount)
{
    LoopPredictor loop;
    const uint64_t pc_hash = mix64(0x400900);
    const unsigned trip = 13;
    // Train: enough full visits to fully saturate confidence (the
    // predictor only overrides at max confidence).
    for (int visit = 0; visit < 12; ++visit) {
        for (unsigned i = 0; i < trip; ++i)
            loop.update(pc_hash, i + 1 < trip);
    }
    // Now confident: check an entire visit is predicted exactly.
    for (unsigned i = 0; i < trip; ++i) {
        const auto pred = loop.lookup(pc_hash);
        ASSERT_TRUE(pred.valid);
        EXPECT_EQ(pred.taken, i + 1 < trip) << "iteration " << i;
        loop.update(pc_hash, i + 1 < trip);
    }
}

TEST(Loop, NotConfidentOnVaryingTripCounts)
{
    LoopPredictor loop;
    const uint64_t pc_hash = mix64(0x400900);
    Rng rng(5);
    for (int visit = 0; visit < 20; ++visit) {
        const unsigned trip = 3 + static_cast<unsigned>(rng.below(10));
        for (unsigned i = 0; i < trip; ++i)
            loop.update(pc_hash, i + 1 < trip);
    }
    EXPECT_FALSE(loop.lookup(pc_hash).valid);
}

TEST(Loop, StorageNonZero)
{
    EXPECT_GT(LoopPredictor().storageBits(), 0u);
}

// ------------------------------------------------ statistical corrector

TEST(StatisticalCorrector, LearnsToInvertBiasedWrongPrimary)
{
    StatisticalCorrector sc;
    const uint64_t ip = 0x400a00;
    // Primary predictor is always wrong (predicts taken, outcome is
    // not-taken); SC must learn to invert.
    int correct = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool pred = sc.predict(mix64(ip), /*primary=*/true, 0);
        sc.update(ip, /*taken=*/false, ip - 64);
        if (i >= 1000 && !pred)
            ++correct;
    }
    EXPECT_GT(correct, 950);
}

TEST(StatisticalCorrector, KeepsConfidentCorrectPrimary)
{
    StatisticalCorrector sc;
    const uint64_t ip = 0x400a00;
    int kept = 0;
    for (int i = 0; i < 500; ++i) {
        const bool pred = sc.predict(mix64(ip), true, 3);
        sc.update(ip, true, ip - 64);
        if (pred)
            ++kept;
    }
    EXPECT_GT(kept, 490);
}

TEST(StatisticalCorrector, ImliTracksInnerLoop)
{
    StatisticalCorrector sc;
    const uint64_t loop_branch = 0x400b00;
    const uint64_t target = 0x400a80;   // backward
    for (int iter = 0; iter < 5; ++iter) {
        sc.predict(mix64(loop_branch), true, 0);
        sc.update(loop_branch, true, target);
    }
    EXPECT_EQ(sc.imliCount(), 5u);
    // Exit resets.
    sc.predict(mix64(loop_branch), false, 0);
    sc.update(loop_branch, false, target);
    EXPECT_EQ(sc.imliCount(), 0u);
}

// -------------------------------------------------------------- oracle

TEST(Oracle, PerfectAlwaysCorrect)
{
    PerfectPredictor bp;
    Rng rng(6);
    const double acc = trainAndMeasure(
        bp, [&](uint64_t) { return rng.chance(0.5); }, 0, 1000);
    EXPECT_DOUBLE_EQ(acc, 1.0);
}

TEST(Oracle, PerfectOnSetOnlyCoversSet)
{
    auto inner = std::make_unique<StaticPredictor>(true);
    PerfectOnSetPredictor bp(std::move(inner), {0xAAA}, "test");
    // IP in set: always right even when not taken.
    EXPECT_FALSE(bp.predict(0xAAA, false));
    // IP outside the set: falls through to always-taken.
    EXPECT_TRUE(bp.predict(0xBBB, false));
    EXPECT_EQ(bp.setSize(), 1u);
}

// -------------------------------------------------------------- helper

namespace {

/** A helper model that always predicts the majority direction. */
class ConstHelper : public HelperModel
{
  public:
    explicit ConstHelper(bool dir) : direction(dir) {}

    bool
    infer(uint64_t, const HistoryRegister &) const override
    {
        return direction;
    }

    uint64_t storageBits() const override { return 1; }

  private:
    bool direction;
};

} // namespace

TEST(HelperOverlay, HelperOverridesBase)
{
    ConstHelper helper(false);
    HelperOverlayPredictor bp(std::make_unique<StaticPredictor>(true));
    bp.addHelper(0xCCC, &helper);
    EXPECT_FALSE(bp.predict(0xCCC, true));   // helper wins
    EXPECT_TRUE(bp.predict(0xDDD, true));    // base elsewhere
    EXPECT_EQ(bp.helperCount(), 1u);
}

// ----------------------------------------------------------------- sim

TEST(PredictorSim, CountsBranchesAndMispredicts)
{
    StaticPredictor bp(true);
    PredictorSim sim(bp);
    TraceRecord branch;
    branch.cls = InstrClass::CondBranch;
    branch.ip = 0x400100;
    branch.taken = true;
    sim.onRecord(branch);
    branch.taken = false;
    sim.onRecord(branch);
    TraceRecord alu;
    alu.cls = InstrClass::Alu;
    sim.onRecord(alu);

    EXPECT_EQ(sim.instructions(), 3u);
    EXPECT_EQ(sim.condExecs(), 2u);
    EXPECT_EQ(sim.condMispreds(), 1u);
    EXPECT_DOUBLE_EQ(sim.accuracy(), 0.5);
    ASSERT_EQ(sim.perBranch().count(0x400100u), 1u);
    EXPECT_EQ(sim.perBranch().at(0x400100).execs, 2u);
    EXPECT_FALSE(sim.lastWasCondBranch());   // last record was ALU
}

TEST(PredictorSim, LastOutcomeVisibleDownstream)
{
    StaticPredictor bp(true);
    PredictorSim sim(bp);
    TraceRecord branch;
    branch.cls = InstrClass::CondBranch;
    branch.ip = 1;
    branch.taken = false;   // static-taken mispredicts
    sim.onRecord(branch);
    EXPECT_TRUE(sim.lastWasCondBranch());
    EXPECT_TRUE(sim.lastMispredicted());
}

// ------------------------------------------------------------- factory

TEST(Factory, AllKnownNamesConstruct)
{
    for (const std::string &name : knownPredictorNames()) {
        auto bp = makePredictor(name);
        ASSERT_NE(bp, nullptr) << name;
        EXPECT_FALSE(bp->name().empty());
    }
}

TEST(Factory, StorageBudgetsRoughlyMatchLabels)
{
    // Each preset should land within 2x of its nominal budget.
    for (unsigned kb : {8u, 64u, 128u, 256u, 512u, 1024u}) {
        auto bp =
            makePredictor("tage-sc-l-" + std::to_string(kb) + "KB");
        EXPECT_GT(bp->storageKB(), kb * 0.5) << kb;
        EXPECT_LT(bp->storageKB(), kb * 2.0) << kb;
    }
}

TEST(Factory, PresetsScaleMonotonically)
{
    double prev = 0.0;
    for (unsigned kb : {8u, 64u, 128u, 256u, 512u, 1024u}) {
        auto bp =
            makePredictor("tage-sc-l-" + std::to_string(kb) + "KB");
        EXPECT_GT(bp->storageKB(), prev);
        prev = bp->storageKB();
    }
}
