#include "bp/simple.hpp"

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

// ---------------------------------------------------------------- bimodal

BimodalPredictor::BimodalPredictor(unsigned log2_entries,
                                   unsigned counter_bits)
    : indexBits(log2_entries), ctrBits(counter_bits)
{
    BPNSP_ASSERT(log2_entries >= 1 && log2_entries <= 28);
    // Initialize to weakly-taken so cold branches lean taken.
    table.assign(1ull << indexBits,
                 SatCounter(ctrBits, (1u << ctrBits) / 2));
}

std::string
BimodalPredictor::name() const
{
    return "bimodal-" + std::to_string(1ull << indexBits);
}

size_t
BimodalPredictor::indexOf(uint64_t ip) const
{
    return bits(mix64(ip), 0, indexBits);
}

bool
BimodalPredictor::predict(uint64_t ip, bool)
{
    return table[indexOf(ip)].taken();
}

void
BimodalPredictor::update(uint64_t ip, bool taken, bool, uint64_t)
{
    table[indexOf(ip)].update(taken);
}

uint64_t
BimodalPredictor::storageBits() const
{
    return (1ull << indexBits) * ctrBits;
}

// ---------------------------------------------------------------- gshare

GsharePredictor::GsharePredictor(unsigned log2_entries,
                                 unsigned history_bits)
    : indexBits(log2_entries), histBits(history_bits)
{
    BPNSP_ASSERT(log2_entries >= 1 && log2_entries <= 28);
    BPNSP_ASSERT(history_bits >= 1 && history_bits <= 64);
    table.assign(1ull << indexBits, SatCounter(2, 2));
}

std::string
GsharePredictor::name() const
{
    return "gshare-" + std::to_string(1ull << indexBits) + "x" +
           std::to_string(histBits);
}

size_t
GsharePredictor::indexOf(uint64_t ip) const
{
    const uint64_t h =
        histBits >= 64 ? history : (history & ((1ull << histBits) - 1));
    return bits(mix64(ip) ^ h, 0, indexBits);
}

bool
GsharePredictor::predict(uint64_t ip, bool)
{
    return table[indexOf(ip)].taken();
}

void
GsharePredictor::update(uint64_t ip, bool taken, bool, uint64_t)
{
    table[indexOf(ip)].update(taken);
    history = (history << 1) | (taken ? 1 : 0);
}

uint64_t
GsharePredictor::storageBits() const
{
    return (1ull << indexBits) * 2 + histBits;
}

} // namespace bpnsp
