#include "bp/loop.hpp"

#include "util/logging.hpp"

namespace bpnsp {

LoopPredictor::LoopPredictor(unsigned log2_entries,
                             unsigned max_iter_bits)
    : indexBits(log2_entries),
      iterMax((1u << max_iter_bits) - 1),
      entries(1ull << log2_entries)
{
    BPNSP_ASSERT(log2_entries >= 1 && log2_entries <= 16);
    BPNSP_ASSERT(max_iter_bits >= 4 && max_iter_bits <= 20);
}

uint64_t
LoopPredictor::storageBits() const
{
    // tag(14) + past(14) + current(14) + confidence(3) + valid(1)
    return (1ull << indexBits) * (14 + 14 + 14 + 3 + 1);
}

} // namespace bpnsp
