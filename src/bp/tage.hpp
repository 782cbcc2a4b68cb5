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
 * Per branch, predict() takes mix64(ip) once (predictHashed() lets the
 * TAGE-SC-L ensemble share it with its other components) and hashes
 * the path history once per distinct path mask. Each table reads three
 * folds of the global history (index, tag, second tag), all kept in one
 * FoldedHistories, which update() advances with one flat loop over
 * 4-lane blocks. update() reuses the indices predict() computed.
 *
 * Storage layout: every tagged table lives in one flat vector of
 * 4-byte entries (an entry's index there is its entry id); the top bit
 * of an entry's 16-bit tag field is its valid bit, so a lookup is one
 * compare, and predict() tests all tables without a branch per table. The bimodal base predictor is one byte per 2-bit
 * counter. storageBits() counts the modelled bits only (tag, counter
 * and usefulness per entry, 2 bits per bimodal counter, the history
 * registers), so the valid bit and the owner IPs below never move the
 * storage axis of Fig. 7.
 *
 * The implementation is instrumented for the paper's Sec. IV-A study:
 * an optional AllocationListener observes every table-entry allocation
 * (which branch took which entry from which branch), enabling the
 * allocation-churn statistics that show H2Ps wasting BPU storage. The
 * owner IP of every entry is kept only while a listener is attached.
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

    /** predict() for a branch whose mix64(ip) the caller already has. */
    bool predictHashed(uint64_t pc_hash);

    /**
     * Register the allocation observer (nullptr to detach). Owner IPs
     * (the listener's `evicted_ip`) are tracked only from attach time,
     * so attaching after the first update() is an assertion failure.
     */
    void setAllocationListener(TageAllocationListener *listener);

    /** What the last predict() decided, and from which tables. */
    struct Decision
    {
        int provider = -1;          ///< providing table (-1 = bimodal)
        int altTable = -1;          ///< alternate table (-1 = bimodal)
        bool providerPred = false;
        bool altPred = false;
        bool pred = false;          ///< the returned prediction
        bool weakNew = false;       ///< provider newly allocated, weak
        uint32_t confidence = 0;    ///< provider counter magnitude
    };

    /** @name Introspection for the statistical corrector and tests. */
    /// @{
    const Decision &lastDecision() const { return last; }

    const TageConfig &config() const { return cfg; }
    /// @}

  private:
    struct Entry
    {
        uint16_t tag = 0;   ///< kValid | tag; 0 = never allocated
        int8_t ctr = 0;
        uint8_t u = 0;
    };

    static constexpr uint16_t kValid = 0x8000;

    /** Per-table index/tag geometry. */
    struct Table
    {
        uint64_t base;       ///< entry id of the table's first entry
        uint32_t indexMask;
        uint16_t tagMask;
        uint8_t pathSlot;    ///< into pathMasks
        uint8_t indexFold;   ///< slots in folds
        uint8_t tagFold;
        uint8_t tag2Fold;
    };

    TageConfig cfg;
    std::vector<Table> geom;
    std::vector<Entry> entries;     ///< all tagged tables, flat
    std::vector<uint64_t> ownerIp;  ///< per entry, only when listened
    std::vector<uint8_t> bimodal;   ///< 2-bit counters, 2 = weak taken
    uint64_t bimodalMask;
    FoldedHistories folds;
    uint64_t pathHistory = 0;
    std::vector<uint64_t> pathMasks;   ///< distinct masks, ascending
    std::vector<uint64_t> pathHash;    ///< mix64 per mask, scratch
    int8_t ctrMax;
    int8_t ctrMin;
    uint8_t uMax;
    SignedSatCounter useAltOnNa{4, 0};
    Rng rng;
    uint64_t updateCount = 0;
    uint64_t nextDecay;
    TageAllocationListener *allocListener = nullptr;

    // predict() scratch consumed by update()
    Decision last;
    uint64_t lastBimodal = 0;
    std::vector<uint64_t> lastIndex;   ///< entry ids, per table
    std::vector<uint16_t> lastTag;     ///< kValid | tag, per table

    void allocate(uint64_t ip, bool taken);
    void decayUsefulness();
};

} // namespace bpnsp

#endif // BPNSP_BP_TAGE_HPP
