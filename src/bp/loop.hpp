/**
 * @file
 * Loop termination predictor (the "L" of TAGE-SC-L; after Sherwood &
 * Calder's loop termination prediction and Seznec's CBP2016 component).
 *
 * Tracks, per branch, the trip count of loops whose branch is taken
 * for N consecutive iterations and then falls through once. When the
 * trip count has been confirmed several times, it predicts the exit
 * iteration exactly — a domain-specific template model (Sec. II).
 *
 * Both calls take the branch's mix64(ip), which the TAGE-SC-L ensemble
 * computes once per branch for all of its components, and are defined
 * here so that the ensemble inlines them.
 */

#ifndef BPNSP_BP_LOOP_HPP
#define BPNSP_BP_LOOP_HPP

#include <cstdint>
#include <vector>

#include "bp/predictor.hpp"
#include "util/bitops.hpp"

namespace bpnsp {

/** Component-style loop predictor. */
class LoopPredictor
{
  public:
    /** Result of a component lookup. */
    struct LoopPrediction
    {
        bool valid = false;   ///< entry found and confident
        bool taken = false;   ///< predicted direction
    };

    /**
     * @param log2_entries log2 of the loop table size
     * @param max_iter_bits width of the iteration counters
     */
    explicit LoopPredictor(unsigned log2_entries = 6,
                           unsigned max_iter_bits = 14);

    /** Look up a loop prediction for the branch hashing to pc_hash. */
    LoopPrediction
    lookup(uint64_t pc_hash) const
    {
        const Entry &e = entries[indexOf(pc_hash)];
        LoopPrediction out;
        if (!e.valid || e.tag != tagOf(pc_hash) ||
            e.confidence < kConfidentAt)
            return out;
        out.valid = true;
        // Taken while inside the loop; fall through on the exit
        // iteration.
        out.taken = (e.currentIter + 1) < e.pastIter;
        return out;
    }

    /** Train with the resolved direction. */
    void
    update(uint64_t pc_hash, bool taken)
    {
        Entry &e = entries[indexOf(pc_hash)];
        const uint32_t tag = tagOf(pc_hash);

        if (!e.valid || e.tag != tag) {
            // Adopt the slot on a not-taken outcome (potential loop
            // exit boundary) so that counting starts aligned with a
            // full visit.
            if (!taken) {
                e = Entry{};
                e.tag = tag;
                e.valid = true;
            }
            return;
        }

        if (taken) {
            if (e.currentIter < iterMax)
                ++e.currentIter;
            else
                e.valid = false;   // trip count out of range; give up
            return;
        }

        // Loop exit observed: check the learned trip count.
        const uint32_t trip = e.currentIter + 1;
        if (e.pastIter == trip) {
            if (e.confidence < kConfidenceMax)
                ++e.confidence;
        } else {
            e.pastIter = trip;
            e.confidence = 0;
        }
        e.currentIter = 0;
    }

    /** Storage estimate in bits. */
    uint64_t storageBits() const;

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t pastIter = 0;     ///< learned trip count
        uint32_t currentIter = 0;  ///< iterations in the current visit
        uint8_t confidence = 0;    ///< confirmations of pastIter
        bool valid = false;
    };

    static constexpr uint8_t kConfidenceMax = 7;
    static constexpr uint8_t kConfidentAt = 7;

    unsigned indexBits;
    uint32_t iterMax;
    std::vector<Entry> entries;

    size_t
    indexOf(uint64_t pc_hash) const
    {
        return bits(pc_hash, 0, indexBits);
    }

    uint32_t
    tagOf(uint64_t pc_hash) const
    {
        return static_cast<uint32_t>(bits(pc_hash, indexBits, 14));
    }
};

} // namespace bpnsp

#endif // BPNSP_BP_LOOP_HPP
