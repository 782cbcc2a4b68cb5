/**
 * @file
 * TAGE: TAgged GEometric history length predictor (Seznec).
 *
 * Partial pattern matching over a geometric series of history lengths:
 * tagged tables store 3-bit direction counters and 2-bit usefulness
 * counters; the longest matching table provides the prediction, with
 * alternate-prediction arbitration for newly allocated entries and
 * randomized allocation on mispredictions.
 *
 * The implementation is instrumented for the paper's Sec. IV-A study:
 * an optional AllocationListener observes every table-entry allocation
 * (which branch took which entry from which branch), enabling the
 * allocation-churn statistics that show H2Ps wasting BPU storage.
 */

#ifndef BPNSP_BP_TAGE_HPP
#define BPNSP_BP_TAGE_HPP

#include <cstdint>
#include <vector>

#include "bp/predictor.hpp"
#include "util/folded_history.hpp"
#include "util/rng.hpp"
#include "util/sat_counter.hpp"

namespace bpnsp {

/** Structural parameters of a TAGE predictor. */
struct TageConfig
{
    std::string label = "tage";    ///< reporting name suffix
    unsigned numTables = 10;       ///< tagged tables
    unsigned minHist = 4;          ///< shortest history length
    unsigned maxHist = 1000;       ///< longest history length
    unsigned log2Bimodal = 12;     ///< base predictor size
    std::vector<unsigned> log2Entries;  ///< per-table size (log2)
    std::vector<unsigned> tagBits;      ///< per-table tag width
    unsigned ctrBits = 3;          ///< direction counter width
    unsigned uBits = 2;            ///< usefulness counter width
    uint64_t uResetPeriod = 1ull << 18; ///< updates between u decays

    /** Geometric history lengths, one per table. */
    std::vector<unsigned> histLengths() const;

    /**
     * Storage presets approximating the paper's configurations.
     * Supported sizes: 8, 64, 128, 256, 512, 1024 (KB). The 8KB preset
     * tracks histories up to 1,000 branches; 64KB and above up to
     * 3,000, matching Sec. IV-A.
     */
    static TageConfig preset(unsigned kilobytes);
};

/** Observer of TAGE tagged-table allocations (Sec. IV-A analysis). */
class TageAllocationListener
{
  public:
    virtual ~TageAllocationListener() = default;

    /**
     * A tagged entry was (re)allocated.
     *
     * @param ip branch that received the entry
     * @param table tagged table index
     * @param entry_id globally unique entry identifier
     * @param evicted_ip previous owner (0 if the entry was free)
     */
    virtual void onAllocation(uint64_t ip, unsigned table,
                              uint64_t entry_id, uint64_t evicted_ip) = 0;
};

/** The TAGE predictor. */
class TagePredictor : public BranchPredictor
{
  public:
    explicit TagePredictor(const TageConfig &config);

    std::string name() const override;
    bool predict(uint64_t ip, bool) override;
    void update(uint64_t ip, bool taken, bool predicted,
                uint64_t target) override;
    void trackOther(uint64_t ip, InstrClass cls,
                    uint64_t target) override;
    uint64_t storageBits() const override;

    /** Register the allocation observer (nullptr to detach). */
    void setAllocationListener(TageAllocationListener *listener);

    /** @name Introspection for the statistical corrector and tests. */
    /// @{
    /** Direction counter magnitude of the provider (0 = bimodal). */
    uint32_t lastConfidence() const { return providerConf; }

    const TageConfig &config() const { return cfg; }
    /// @}

  private:
    struct Entry
    {
        uint16_t tag = 0;
        int8_t ctr = 0;
        uint8_t u = 0;
    };

    TageConfig cfg;
    std::vector<unsigned> histLen;
    std::vector<std::vector<Entry>> tables;
    std::vector<std::vector<uint64_t>> ownerIp;  ///< simulation metadata
    std::vector<uint64_t> entryBase;             ///< entry-id offsets
    std::vector<SatCounter> bimodal;
    HistoryRegister history;
    uint64_t pathHistory = 0;
    std::vector<FoldedHistory> idxFold;
    std::vector<FoldedHistory> tagFold1;
    std::vector<FoldedHistory> tagFold2;
    SignedSatCounter useAltOnNa{4, 0};
    Rng rng;
    uint64_t updateCount = 0;
    TageAllocationListener *allocListener = nullptr;

    // predict() scratch consumed by update()
    int provider = -1;
    int altTable = -1;
    bool providerPred = false;
    bool altPred = false;
    bool finalPred = false;
    bool providerWeakNew = false;
    uint32_t providerConf = 0;
    std::vector<size_t> lastIndex;
    std::vector<uint16_t> lastTag;

    int8_t ctrMax() const;
    int8_t ctrMin() const;
    size_t bimodalIndex(uint64_t ip) const;
    void computeIndices(uint64_t ip);
    void pushHistory(bool taken, uint64_t ip);
    void allocate(uint64_t ip, bool taken);
    void decayUsefulness();
};

} // namespace bpnsp

#endif // BPNSP_BP_TAGE_HPP
