#include "bp/tage.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

std::vector<unsigned>
TageConfig::histLengths() const
{
    BPNSP_ASSERT(numTables >= 2);
    BPNSP_ASSERT(maxHist > minHist);
    std::vector<unsigned> lengths(numTables);
    const double ratio =
        std::pow(static_cast<double>(maxHist) / minHist,
                 1.0 / (numTables - 1));
    double len = minHist;
    for (unsigned t = 0; t < numTables; ++t) {
        lengths[t] = static_cast<unsigned>(len + 0.5);
        if (t > 0 && lengths[t] <= lengths[t - 1])
            lengths[t] = lengths[t - 1] + 1;
        len *= ratio;
    }
    lengths.back() = maxHist;
    return lengths;
}

TageConfig
TageConfig::preset(unsigned kilobytes)
{
    TageConfig cfg;
    cfg.label = std::to_string(kilobytes) + "KB";
    switch (kilobytes) {
      case 8:
        cfg.numTables = 10;
        cfg.minHist = 4;
        cfg.maxHist = 1000;
        cfg.log2Bimodal = 12;
        cfg.log2Entries.assign(cfg.numTables, 9);
        break;
      case 64:
        cfg.numTables = 12;
        cfg.minHist = 4;
        cfg.maxHist = 3000;
        cfg.log2Bimodal = 14;
        cfg.log2Entries.assign(cfg.numTables, 11);
        break;
      case 128:
      case 256:
      case 512:
      case 1024: {
        // Fig. 7 methodology: same organization as 64KB with the
        // number of table entries scaled up.
        cfg = preset(64);
        cfg.label = std::to_string(kilobytes) + "KB";
        unsigned extra = log2Ceil(kilobytes / 64);
        for (auto &l2 : cfg.log2Entries)
            l2 += extra;
        cfg.log2Bimodal += extra;
        return cfg;
      }
      default:
        fatal("unsupported TAGE preset: ", kilobytes, "KB");
    }
    // Tag widths grow with history length, as in Seznec's entries.
    cfg.tagBits.resize(cfg.numTables);
    for (unsigned t = 0; t < cfg.numTables; ++t)
        cfg.tagBits[t] = 8 + (t * 5) / cfg.numTables;
    return cfg;
}

TagePredictor::TagePredictor(const TageConfig &config)
    : cfg(config), folds(config.maxHist), rng(0x7a6e)
{
    BPNSP_ASSERT(cfg.log2Entries.size() == cfg.numTables,
                 "log2Entries size mismatch");
    if (cfg.tagBits.empty()) {
        cfg.tagBits.resize(cfg.numTables);
        for (unsigned t = 0; t < cfg.numTables; ++t)
            cfg.tagBits[t] = 8 + (t * 5) / cfg.numTables;
    }
    BPNSP_ASSERT(cfg.tagBits.size() == cfg.numTables,
                 "tagBits size mismatch");
    BPNSP_ASSERT(cfg.numTables <= 32, "the hit mask is 32 bits");
    BPNSP_ASSERT(cfg.ctrBits >= 2 && cfg.ctrBits <= 8);
    BPNSP_ASSERT(cfg.uBits >= 1 && cfg.uBits <= 8);
    BPNSP_ASSERT(cfg.uResetPeriod >= 1);

    const std::vector<unsigned> histLen = cfg.histLengths();
    geom.resize(cfg.numTables);
    uint64_t base = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        // The tag's top bit is the valid bit.
        BPNSP_ASSERT(cfg.tagBits[t] >= 2 && cfg.tagBits[t] <= 15,
                     "TAGE tag width out of range");
        BPNSP_ASSERT(cfg.log2Entries[t] >= 1 && cfg.log2Entries[t] < 32);
        Table &g = geom[t];
        g.base = base;
        g.indexMask = (1u << cfg.log2Entries[t]) - 1;
        g.tagMask = static_cast<uint16_t>((1u << cfg.tagBits[t]) - 1);
        const uint64_t mask =
            (1ull << std::min<unsigned>(16, histLen[t])) - 1;
        if (pathMasks.empty() || pathMasks.back() != mask)
            pathMasks.push_back(mask);
        g.pathSlot = static_cast<uint8_t>(pathMasks.size() - 1);
        base += 1ull << cfg.log2Entries[t];

        g.indexFold = folds.add(histLen[t], cfg.log2Entries[t]);
        g.tagFold = folds.add(histLen[t], cfg.tagBits[t]);
        g.tag2Fold = folds.add(histLen[t], cfg.tagBits[t] - 1);
    }
    entries.assign(base, Entry{});
    pathHash.assign(pathMasks.size(), 0);
    bimodal.assign(1ull << cfg.log2Bimodal, 2);
    bimodalMask = (1ull << cfg.log2Bimodal) - 1;
    lastIndex.assign(cfg.numTables, 0);
    lastTag.assign(cfg.numTables, 0);
    ctrMax = static_cast<int8_t>((1 << (cfg.ctrBits - 1)) - 1);
    ctrMin = static_cast<int8_t>(-(1 << (cfg.ctrBits - 1)));
    uMax = static_cast<uint8_t>((1u << cfg.uBits) - 1);
    nextDecay = cfg.uResetPeriod;
}

std::string
TagePredictor::name() const
{
    return "tage-" + cfg.label;
}

bool
TagePredictor::predict(uint64_t ip, bool)
{
    return predictHashed(mix64(ip));
}

bool
TagePredictor::predictHashed(uint64_t pc_hash)
{
    // Latch every table's index and tag, and collect the hits: bit t
    // set = table t matches. histLengths() is strictly increasing, so
    // equal path masks are adjacent and each distinct one is hashed
    // once.
    for (size_t k = 0; k < pathMasks.size(); ++k)
        pathHash[k] = mix64(pathHistory & pathMasks[k]);
    uint32_t hits = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const Table &g = geom[t];
        const uint64_t path = pathHash[g.pathSlot] >> (t + 1);
        const uint64_t index = g.base + ((pc_hash ^ (pc_hash >> (t + 2)) ^
                                          folds[g.indexFold] ^ path) &
                                         g.indexMask);
        const auto tag = static_cast<uint16_t>(
            kValid |
            ((pc_hash ^ folds[g.tagFold] ^
              (static_cast<uint64_t>(folds[g.tag2Fold]) << 1)) &
             g.tagMask));
        lastIndex[t] = index;
        lastTag[t] = tag;
        hits |= static_cast<uint32_t>(entries[index].tag == tag) << t;
    }

    // The provider is the longest-history hit, the alternate the next.
    const int provider = static_cast<int>(std::bit_width(hits)) - 1;
    const int alt =
        provider < 0
            ? -1
            : static_cast<int>(std::bit_width(hits ^ (1u << provider))) - 1;
    lastBimodal = pc_hash & bimodalMask;
    last.provider = provider;
    last.altTable = alt;

    const bool bimodal_pred = bimodal[lastBimodal] >= 2;
    if (provider < 0) {
        last.providerPred = last.altPred = last.pred = bimodal_pred;
        last.weakNew = false;
        last.confidence = 0;
        return last.pred;
    }

    const Entry &pe = entries[lastIndex[provider]];
    last.providerPred = pe.ctr >= 0;
    last.confidence = pe.ctr >= 0 ? static_cast<uint32_t>(pe.ctr)
                                  : static_cast<uint32_t>(-pe.ctr - 1);
    last.altPred =
        alt >= 0 ? (entries[lastIndex[alt]].ctr >= 0) : bimodal_pred;

    // Newly allocated entries (u == 0, weak counter) may be less
    // reliable than the alternate prediction; arbitrate dynamically.
    last.weakNew = pe.u == 0 && (pe.ctr == 0 || pe.ctr == -1);
    last.pred = (last.weakNew && useAltOnNa.read() >= 0)
                    ? last.altPred
                    : last.providerPred;
    return last.pred;
}

void
TagePredictor::update(uint64_t ip, bool taken, bool predicted,
                      uint64_t)
{
    (void)predicted;   // equals last.pred by contract
    ++updateCount;
    const int step = taken ? 1 : -1;
    const auto trainBimodal = [&] {
        uint8_t &c = bimodal[lastBimodal];
        c = static_cast<uint8_t>(std::clamp(c + step, 0, 3));
    };

    if (last.provider >= 0) {
        Entry &pe = entries[lastIndex[last.provider]];

        if (last.providerPred != last.altPred) {
            // Arbitrate the use-alt-on-newly-allocated policy.
            if (last.weakNew)
                useAltOnNa.update(last.altPred == taken);
            // Usefulness: the provider proved its value (or not) over
            // the alternate.
            pe.u = static_cast<uint8_t>(std::clamp(
                pe.u + (last.providerPred == taken ? 1 : -1), 0,
                int{uMax}));
        }

        // Direction counter.
        pe.ctr = static_cast<int8_t>(
            std::clamp(pe.ctr + step, int{ctrMin}, int{ctrMax}));

        // Also train the bimodal when the provider is the lowest table
        // and weak, keeping the base predictor warm.
        if (last.provider == 0 && (pe.ctr == 0 || pe.ctr == -1))
            trainBimodal();
    } else {
        trainBimodal();
    }

    if (last.pred != taken)
        allocate(ip, taken);

    if (updateCount == nextDecay) {
        nextDecay += cfg.uResetPeriod;
        decayUsefulness();
    }

    folds.push(taken);
    pathHistory = (pathHistory << 1) | ((ip >> 2) & 1);
}

void
TagePredictor::allocate(uint64_t ip, bool taken)
{
    const unsigned first = static_cast<unsigned>(last.provider + 1);
    if (first >= cfg.numTables)
        return;

    // Randomized start avoids ping-pong between branches contending
    // for the same tables (Seznec's allocation throttling).
    unsigned start = first;
    if (cfg.numTables - first > 1 && rng.below(2) == 0)
        start = first + 1 +
                static_cast<unsigned>(rng.below(
                    std::min<uint64_t>(2, cfg.numTables - first - 1)));

    for (unsigned t = start; t < cfg.numTables; ++t) {
        Entry &e = entries[lastIndex[t]];
        if (e.u == 0) {
            e.tag = lastTag[t];
            e.ctr = taken ? 0 : -1;
            if (allocListener != nullptr) {
                uint64_t &owner = ownerIp[lastIndex[t]];
                const uint64_t evicted = owner;
                owner = ip;
                allocListener->onAllocation(ip, t, lastIndex[t],
                                            evicted);
            }
            return;
        }
    }
    // Nothing free: age the candidates so future allocations can
    // succeed (usefulness decrement on allocation failure).
    for (unsigned t = first; t < cfg.numTables; ++t) {
        Entry &e = entries[lastIndex[t]];
        if (e.u > 0)
            --e.u;
    }
}

void
TagePredictor::decayUsefulness()
{
    for (auto &e : entries)
        e.u >>= 1;
}

void
TagePredictor::trackOther(uint64_t ip, InstrClass cls, uint64_t)
{
    if (isControl(cls))
        pathHistory = (pathHistory << 1) | ((ip >> 2) & 1);
}

void
TagePredictor::setAllocationListener(TageAllocationListener *listener)
{
    if (listener != nullptr) {
        BPNSP_ASSERT(updateCount == 0,
                     "attach the TAGE allocation listener before the "
                     "first update");
        ownerIp.assign(entries.size(), 0);
    }
    allocListener = listener;
}

uint64_t
TagePredictor::storageBits() const
{
    uint64_t total = (1ull << cfg.log2Bimodal) * 2;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const uint64_t entry_bits =
            cfg.tagBits[t] + cfg.ctrBits + cfg.uBits;
        total += (1ull << cfg.log2Entries[t]) * entry_bits;
    }
    total += cfg.maxHist;   // history register
    total += 16;            // path history
    return total;
}

} // namespace bpnsp
