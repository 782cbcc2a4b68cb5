#include "bp/sc.hpp"

#include <algorithm>
#include <cmath>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

StatisticalCorrector::StatisticalCorrector(const ScConfig &config)
    : cfg(config), threshold(config.initialThreshold),
      folds(config.histLengths.empty() ? 1 : config.histLengths.back()),
      imliHash(mix64(0))
{
    BPNSP_ASSERT(!cfg.histLengths.empty());
    BPNSP_ASSERT(cfg.weightBits >= 2 && cfg.weightBits <= 8);
    weightMax = static_cast<int8_t>((1 << (cfg.weightBits - 1)) - 1);
    weightMin = static_cast<int8_t>(-(1 << (cfg.weightBits - 1)));

    gehl.assign(cfg.histLengths.size() << cfg.log2Entries, 0);
    bias.assign(1ull << (cfg.log2Entries + 1), 0);
    imliTable.assign(1ull << cfg.log2Imli, 0);
    lastIndex.assign(cfg.histLengths.size(), 0);

    for (unsigned len : cfg.histLengths)
        foldSlot.push_back(folds.add(len, cfg.log2Entries));
}

bool
StatisticalCorrector::predict(uint64_t pc_hash, bool primary_pred,
                              uint32_t primary_conf)
{
    primaryPred = primary_pred;

    // The primary prediction enters the sum with a confidence-scaled
    // weight, so high-confidence TAGE predictions are hard to override.
    sum = (primary_pred ? 1 : -1) *
          static_cast<int32_t>(3 + 2 * primary_conf);

    // Every weight w votes 2w + 1, so a zero weight still votes.
    const uint64_t mask = (1ull << cfg.log2Entries) - 1;
    lastBiasIndex = ((pc_hash << 1) | (primary_pred ? 1 : 0)) &
                    ((mask << 1) | 1);
    int32_t weights = bias[lastBiasIndex];

    for (size_t t = 0; t < lastIndex.size(); ++t) {
        lastIndex[t] =
            (t << cfg.log2Entries) |
            ((pc_hash ^ folds[foldSlot[t]] ^
              (pc_hash >> (t + 4))) &
             mask);
        weights += gehl[lastIndex[t]];
    }

    lastImliIndex = (pc_hash ^ imliHash) & (imliTable.size() - 1);
    weights += imliTable[lastImliIndex];
    sum += 2 * weights + static_cast<int32_t>(lastIndex.size()) + 2;

    const bool sc_pred = sum >= 0;
    // Only override a disagreeing primary prediction when the
    // statistical evidence clears the adaptive threshold.
    const bool keep = (sc_pred != primary_pred) & (std::abs(sum) < threshold);
    finalPred = keep ? primary_pred : sc_pred;
    return finalPred;
}

void
StatisticalCorrector::update(uint64_t ip, bool taken, uint64_t target)
{
    // Threshold adaptation (Seznec's TC mechanism): tune how bold the
    // corrector is, based on whether overrides would have helped.
    // A disagreement with the primary steps the counter down when the
    // corrector was right and up when it was wrong; the threshold moves
    // when the counter reaches -8 or 8.
    const bool sc_pred = sum >= 0;
    thresholdCtr += sc_pred == primaryPred ? 0 : (sc_pred == taken ? -1 : 1);
    if (thresholdCtr <= -8) {
        thresholdCtr = 0;
        if (threshold > 4)
            --threshold;
    } else if (thresholdCtr >= 8) {
        thresholdCtr = 0;
        if (threshold < 128)
            ++threshold;
    }

    // Train on mispredictions and low-margin correct predictions.
    if ((finalPred != taken) | (std::abs(sum) < threshold * 2)) {
        const int step = taken ? 1 : -1;
        const int lo = weightMin;
        const int hi = weightMax;
        const auto adjust = [&](int8_t &w) {
            w = static_cast<int8_t>(std::clamp(w + step, lo, hi));
        };
        adjust(bias[lastBiasIndex]);
        for (size_t index : lastIndex)
            adjust(gehl[index]);
        adjust(imliTable[lastImliIndex]);
    }

    // IMLI: count successive iterations of the inner-most loop,
    // identified by a backward taken conditional branch.
    // Whether a branch is backward is fixed per branch, so only that
    // test is a branch; the outcome selects values.
    if (target < ip) {
        const uint64_t next =
            target == lastLoopTarget
                ? std::min<uint64_t>(imli + 1, (1ull << cfg.log2Imli) - 1)
                : 1;
        imli = taken ? next : 0;
        lastLoopTarget = taken ? target : lastLoopTarget;
        imliHash = mix64(imli);
    }

    // Global history for the GEHL folds.
    folds.push(taken);
}

uint64_t
StatisticalCorrector::storageBits() const
{
    uint64_t total = 0;
    total += gehl.size() * cfg.weightBits;
    total += (1ull << (cfg.log2Entries + 1)) * cfg.weightBits;
    total += (1ull << cfg.log2Imli) * cfg.weightBits;
    total += cfg.histLengths.back();
    return total;
}

} // namespace bpnsp
