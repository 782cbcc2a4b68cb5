/**
 * @file
 * Simple baseline predictors: static, bimodal and gshare. These are
 * the classical designs the paper's Sec. II positions TAGE-SC-L
 * against, and they serve as comparators in the bench harnesses.
 */

#ifndef BPNSP_BP_SIMPLE_HPP
#define BPNSP_BP_SIMPLE_HPP

#include <cstdint>
#include <vector>

#include "bp/predictor.hpp"
#include "util/sat_counter.hpp"

namespace bpnsp {

/** Predicts a constant direction. */
class StaticPredictor : public BranchPredictor
{
  public:
    explicit StaticPredictor(bool predict_taken = true)
        : direction(predict_taken)
    {}

    std::string
    name() const override
    {
        return direction ? "always-taken" : "always-not-taken";
    }

    bool predict(uint64_t, bool) override { return direction; }
    void update(uint64_t, bool, bool, uint64_t) override {}
    uint64_t storageBits() const override { return 0; }

  private:
    bool direction;
};

/** Per-IP table of 2-bit counters (Smith predictor). */
class BimodalPredictor : public BranchPredictor
{
  public:
    /** @param log2_entries log2 of the counter table size */
    explicit BimodalPredictor(unsigned log2_entries = 12,
                              unsigned counter_bits = 2);

    std::string name() const override;
    bool predict(uint64_t ip, bool) override;
    void update(uint64_t ip, bool taken, bool predicted,
                uint64_t target) override;
    uint64_t storageBits() const override;

  private:
    unsigned indexBits;
    unsigned ctrBits;
    std::vector<SatCounter> table;

    size_t indexOf(uint64_t ip) const;
};

/** Global-history predictor: counters indexed by ip XOR history. */
class GsharePredictor : public BranchPredictor
{
  public:
    /**
     * @param log2_entries log2 of the counter table size
     * @param history_bits global history length (<= 64)
     */
    explicit GsharePredictor(unsigned log2_entries = 14,
                             unsigned history_bits = 14);

    std::string name() const override;
    bool predict(uint64_t ip, bool) override;
    void update(uint64_t ip, bool taken, bool predicted,
                uint64_t target) override;
    uint64_t storageBits() const override;

  private:
    unsigned indexBits;
    unsigned histBits;
    uint64_t history = 0;
    std::vector<SatCounter> table;

    size_t indexOf(uint64_t ip) const;
};

} // namespace bpnsp

#endif // BPNSP_BP_SIMPLE_HPP
