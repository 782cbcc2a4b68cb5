/**
 * @file
 * Black-box dissection of the predictors: infer a structural limit
 * from prediction accuracy alone, then check it against the
 * configuration.
 *
 * History reach: a random branch, N always-taken fillers, then a
 * branch that repeats the random outcome. The copy is predictable only
 * while the random outcome is still inside the longest history the
 * predictor correlates on, so its accuracy falls from ~1 to a coin
 * flip once N crosses TAGE's maxHist (paper Sec. IV-A: 1,000 for
 * 8KB, 3,000 for 64KB).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bp/factory.hpp"
#include "bp/tage.hpp"
#include "util/rng.hpp"

using namespace bpnsp;

namespace {

constexpr unsigned kRounds = 1000;
constexpr unsigned kScored = 500;        ///< the last rounds score
constexpr unsigned kFillerIps = 30;

/**
 * Accuracy on the copy branch over the last kScored of kRounds
 * rounds, each round being the random branch, `fillers` always-taken
 * branches cycling over kFillerIps distinct IPs, and the copy.
 */
double
copyAccuracy(const std::string &predictor, unsigned fillers)
{
    const std::unique_ptr<BranchPredictor> bp = makePredictor(predictor);
    Rng rng(0xd15ec7);
    const auto step = [&bp](uint64_t ip, bool taken) {
        const bool predicted = bp->predict(ip, taken);
        bp->update(ip, taken, predicted, ip + 0x40);
        return predicted == taken;
    };

    unsigned correct = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        const bool outcome = (rng.next() & 1) != 0;
        step(0x401000, outcome);
        for (unsigned i = 0; i < fillers; ++i)
            step(0x402000 + 0x10 * (i % kFillerIps), true);
        if (step(0x403000, outcome) && round >= kRounds - kScored)
            ++correct;
    }
    return static_cast<double>(correct) / kScored;
}

} // namespace

TEST(Dissect, HistoryReachIsTheConfiguredMaxHist)
{
    struct Probe
    {
        const char *predictor;
        unsigned storageKB;
        unsigned inside;    ///< fillers within the reach
        unsigned beyond;    ///< fillers past it
    };
    for (const Probe &p : {Probe{"tage-sc-l-8KB", 8, 990, 1010},
                           Probe{"tage-sc-l-64KB", 64, 2900, 3100}}) {
        SCOPED_TRACE(p.predictor);
        const unsigned maxHist = TageConfig::preset(p.storageKB).maxHist;
        ASSERT_LT(p.inside, maxHist);
        ASSERT_GT(p.beyond, maxHist);
        EXPECT_GE(copyAccuracy(p.predictor, p.inside), 0.95);
        EXPECT_LE(copyAccuracy(p.predictor, p.beyond), 0.65);
    }
}
