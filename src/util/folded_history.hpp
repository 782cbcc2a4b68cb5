/**
 * @file
 * Global outcome histories: a plain shift register for consumers that
 * read individual bits, and the folded (compressed) form TAGE-family
 * predictors use to hash very long histories into table indices and
 * tags incrementally, one branch at a time.
 */

#ifndef BPNSP_UTIL_FOLDED_HISTORY_HPP
#define BPNSP_UTIL_FOLDED_HISTORY_HPP

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.hpp"

namespace bpnsp {

/**
 * A large shift register of branch outcomes (the raw global history).
 *
 * Stores up to capacity bits; bit 0 is the most recent outcome.
 */
class HistoryRegister
{
  public:
    explicit HistoryRegister(unsigned capacity = 4096)
        : cap(capacity), bitvec((capacity + 63) / 64, 0)
    {
        BPNSP_ASSERT(capacity >= 1);
    }

    /** Shift in a new outcome as the most recent bit. */
    void
    push(bool taken)
    {
        // Shift the whole vector left by one bit, inserting at bit 0.
        bool carry = taken;
        for (auto &word : bitvec) {
            bool next_carry = (word >> 63) & 1;
            word = (word << 1) | (carry ? 1u : 0u);
            carry = next_carry;
        }
    }

    /** Outcome of the branch `pos` steps in the past (0 = most recent). */
    bool
    at(unsigned pos) const
    {
        BPNSP_ASSERT(pos < cap);
        return (bitvec[pos / 64] >> (pos % 64)) & 1;
    }

    /** The `n` most recent outcomes packed into the low bits (n <= 64). */
    uint64_t
    low(unsigned n) const
    {
        BPNSP_ASSERT(n <= 64);
        uint64_t v = bitvec[0];
        if (n < 64)
            v &= (1ull << n) - 1;
        return v;
    }

    unsigned capacity() const { return cap; }

    /** Clear all history. */
    void
    reset()
    {
        for (auto &word : bitvec)
            word = 0;
    }

  private:
    unsigned cap;
    std::vector<uint64_t> bitvec;
};

/**
 * A global outcome history plus any number of XOR folds of its newest
 * bits, as TAGE-family predictors use to hash very long histories into
 * table indices and tags.
 *
 * The fold of length L and width W is the XOR, over the newest L
 * outcomes, of outcome i (0 = newest) placed at bit i % W: the same
 * value as foldTo() of the newest L outcomes packed into one integer.
 * push() keeps every fold current in O(1) each: the new outcome enters
 * at bit 0, the one that just became L outcomes old leaves at bit
 * L % W, and the bit shifted out at W rotates back to bit 0.
 *
 * The history is a ring of one byte per outcome, so reading a fold's
 * expiring outcome is one load and a push writes one byte. The fold
 * state is struct-of-arrays, padded to blocks of four folds, and push()
 * updates a block with 4-lane vector operations (the GCC/Clang vector
 * extension; SSE2 on x86-64), none of which shifts by a per-fold
 * amount.
 */
class FoldedHistories
{
  public:
    /** @param capacity the longest fold length add() will accept */
    explicit FoldedHistories(unsigned capacity)
        : cap(capacity)
    {
        BPNSP_ASSERT(capacity >= 1);
        unsigned size = 64;
        while (size < capacity)
            size <<= 1;
        ringMask = size - 1;
        ring.assign(size, 0);
    }

    /**
     * Add a fold of the newest `length` outcomes down to `width` bits.
     * Add every fold before the first push().
     *
     * @return the fold's slot, for operator[]
     */
    unsigned
    add(unsigned length, unsigned width)
    {
        BPNSP_ASSERT(length >= 1 && length <= cap);
        // A fold shifted left stays below 2^31, where push()'s signed
        // lane compare is exact.
        BPNSP_ASSERT(width >= 1 && width <= 30);
        const unsigned slot = count++;
        if (slot % kLanes == 0) {
            // Unused lanes have a zero mask and are never read.
            for (auto *lanes : {&folded, &outBit, &mask})
                lanes->resize(lanes->size() + kLanes, 0);
            expiredAge.resize(expiredAge.size() + kLanes, 0);
        }
        outBit[slot] = static_cast<int32_t>(1u << (length % width));
        mask[slot] = static_cast<int32_t>((1u << width) - 1);
        expiredAge[slot] = length - 1;
        return slot;
    }

    /** Shift in a new outcome as the newest bit, updating every fold. */
    void
    push(bool taken)
    {
        const int32_t in = taken ? 1 : 0;
        for (size_t i = 0; i < folded.size(); i += kLanes) {
            const uint32_t *age = &expiredAge[i];
            const Lanes out = {ring[(head - age[0]) & ringMask],
                               ring[(head - age[1]) & ringMask],
                               ring[(head - age[2]) & ringMask],
                               ring[(head - age[3]) & ringMask]};
            const Lanes f = ((load(folded, i) << 1) | in) ^
                            (-out & load(outBit, i));
            // Bit `width` (set iff f > mask) rotates back to bit 0.
            const Lanes m = load(mask, i);
            const Lanes next = (f & m) ^ ((f > m) & 1);
            std::memcpy(&folded[i], &next, sizeof(next));
        }
        head = (head + 1) & ringMask;
        ring[head] = static_cast<uint8_t>(in);
    }

    /** Current value of the fold in `slot` (its width in bits). */
    uint32_t
    operator[](unsigned slot) const
    {
        return static_cast<uint32_t>(folded[slot]);
    }

  private:
    static constexpr unsigned kLanes = 4;
    using Lanes = int32_t __attribute__((vector_size(4 * kLanes)));

    static Lanes
    load(const std::vector<int32_t> &lanes, size_t at)
    {
        Lanes v;
        std::memcpy(&v, &lanes[at], sizeof(v));
        return v;
    }

    unsigned cap;
    unsigned ringMask = 0;
    unsigned head = 0;                ///< ring position of the newest bit
    std::vector<uint8_t> ring;        ///< one outcome per byte, 2^k bytes
    unsigned count = 0;               ///< folds added

    // Per fold, padded to whole blocks of kLanes.
    std::vector<int32_t> folded;
    std::vector<int32_t> outBit;      ///< 1 << (length % width)
    std::vector<int32_t> mask;        ///< (1 << width) - 1
    std::vector<uint32_t> expiredAge; ///< length - 1
};

} // namespace bpnsp

#endif // BPNSP_UTIL_FOLDED_HISTORY_HPP
