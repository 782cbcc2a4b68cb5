/**
 * @file
 * Statistical corrector (the "SC" of TAGE-SC-L).
 *
 * A perceptron-like ensemble arbiter (Sec. II: "Ensemble Models"): a
 * bias table plus GEHL-style weight tables over several global-history
 * lengths and an IMLI (inner-most loop iteration) table vote on whether
 * to keep or invert the primary prediction. The decision threshold is
 * adapted dynamically.
 *
 * predict() takes the branch's mix64(ip) from the caller (the TAGE-SC-L
 * ensemble hashes each branch once for all components); the IMLI
 * counter's hash is recomputed only on backward branches, the only ones
 * that move the counter. The GEHL tables read one FoldedHistories (one
 * fold per history length), and every weight is stored in one byte.
 */

#ifndef BPNSP_BP_SC_HPP
#define BPNSP_BP_SC_HPP

#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "util/folded_history.hpp"

namespace bpnsp {

/** Configuration of the statistical corrector. */
struct ScConfig
{
    unsigned log2Entries = 9;     ///< entries per weight table
    unsigned weightBits = 6;      ///< signed weight width
    std::vector<unsigned> histLengths = {4, 10, 16, 27, 44};
    unsigned log2Imli = 8;        ///< IMLI table size
    int32_t initialThreshold = 6; ///< |sum| needed to override
};

/** Component-style statistical corrector. */
class StatisticalCorrector
{
  public:
    explicit StatisticalCorrector(const ScConfig &config = ScConfig{});

    /**
     * Decide the final prediction.
     *
     * @param pc_hash mix64 of the branch instruction pointer
     * @param primary_pred the TAGE(+loop) prediction
     * @param primary_conf provider counter confidence (0..3)
     * @return the possibly-inverted final prediction
     */
    bool predict(uint64_t pc_hash, bool primary_pred,
                 uint32_t primary_conf);

    /**
     * Train with the resolved outcome. Must follow each predict().
     *
     * @param ip branch instruction pointer
     * @param taken resolved direction
     * @param target taken-path target (drives IMLI)
     */
    void update(uint64_t ip, bool taken, uint64_t target);

    /** Storage estimate in bits. */
    uint64_t storageBits() const;

    /** @name Introspection for tests. */
    /// @{
    /** Current IMLI counter. */
    uint64_t imliCount() const { return imli; }

    /** The last predict()'s vote (>= 0 votes taken). */
    int32_t lastSum() const { return sum; }

    /** |sum| a disagreeing vote needs to override the primary. */
    int32_t overrideThreshold() const { return threshold; }
    /// @}

  private:
    ScConfig cfg;
    int32_t threshold;
    int32_t thresholdCtr = 0;
    int8_t weightMax;
    int8_t weightMin;

    std::vector<int8_t> gehl;        ///< [table << log2Entries | entry]
    std::vector<int8_t> bias;        ///< indexed by (ip, pred)
    std::vector<int8_t> imliTable;
    FoldedHistories folds;
    std::vector<unsigned> foldSlot;  ///< per GEHL table

    uint64_t imli = 0;
    uint64_t imliHash;               ///< mix64(imli)
    uint64_t lastLoopTarget = 0;

    // predict() scratch consumed by update()
    int32_t sum = 0;
    bool primaryPred = false;
    bool finalPred = false;
    std::vector<size_t> lastIndex;
    size_t lastBiasIndex = 0;
    size_t lastImliIndex = 0;
};

} // namespace bpnsp

#endif // BPNSP_BP_SC_HPP
