/**
 * @file
 * TAGE-SC-L: the CBP2016-winning ensemble (Seznec, "TAGE-SC-L Branch
 * Predictors Again") and the paper's reference state-of-the-art
 * predictor. TAGE provides the primary prediction, the loop predictor
 * overrides for counted loops, and the statistical corrector arbitrates.
 *
 * predict() computes mix64(ip) once and hands it to all three
 * components; update() reuses it.
 */

#ifndef BPNSP_BP_TAGESCL_HPP
#define BPNSP_BP_TAGESCL_HPP

#include <memory>

#include "bp/loop.hpp"
#include "bp/predictor.hpp"
#include "bp/sc.hpp"
#include "bp/tage.hpp"

namespace bpnsp {

/** Configuration of the full ensemble. */
struct TageSclConfig
{
    TageConfig tage = TageConfig::preset(8);
    ScConfig sc;
    unsigned loopLog2Entries = 6;
    bool enableLoop = true;
    bool enableSc = true;

    /**
     * Presets matching the paper: 8 and 64 KB are the configurations
     * measured throughout; 128-1024 KB extend table capacity for the
     * Fig. 7 limit study.
     */
    static TageSclConfig preset(unsigned kilobytes);
};

/** The TAGE-SC-L ensemble predictor. */
class TageSclPredictor : public BranchPredictor
{
  public:
    explicit TageSclPredictor(
        const TageSclConfig &config = TageSclConfig{});

    std::string name() const override;
    bool predict(uint64_t ip, bool) override;
    void update(uint64_t ip, bool taken, bool predicted,
                uint64_t target) override;
    void trackOther(uint64_t ip, InstrClass cls,
                    uint64_t target) override;
    uint64_t storageBits() const override;

    /** @name The components (for instrumentation and tests). */
    /// @{
    TagePredictor &tage() { return tageComp; }
    const TagePredictor &tage() const { return tageComp; }
    const LoopPredictor &loop() const { return loopComp; }
    const StatisticalCorrector &sc() const { return scComp; }
    /// @}

  private:
    TageSclConfig cfg;
    TagePredictor tageComp;
    LoopPredictor loopComp;
    StatisticalCorrector scComp;
    uint64_t pcHash = 0;   ///< mix64 of the branch last predicted
};

} // namespace bpnsp

#endif // BPNSP_BP_TAGESCL_HPP
