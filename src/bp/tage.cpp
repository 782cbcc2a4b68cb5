#include "bp/tage.hpp"

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
    : cfg(config), history(config.maxHist + 1), rng(0x7a6e)
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

    histLen = cfg.histLengths();
    tables.resize(cfg.numTables);
    ownerIp.resize(cfg.numTables);
    entryBase.resize(cfg.numTables);
    uint64_t base = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        tables[t].assign(1ull << cfg.log2Entries[t], Entry{});
        ownerIp[t].assign(1ull << cfg.log2Entries[t], 0);
        entryBase[t] = base;
        base += tables[t].size();
    }
    bimodal.assign(1ull << cfg.log2Bimodal, SatCounter(2, 2));
    lastIndex.assign(cfg.numTables, 0);
    lastTag.assign(cfg.numTables, 0);

    idxFold.reserve(cfg.numTables);
    tagFold1.reserve(cfg.numTables);
    tagFold2.reserve(cfg.numTables);
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        idxFold.emplace_back(histLen[t], cfg.log2Entries[t]);
        tagFold1.emplace_back(histLen[t], cfg.tagBits[t]);
        tagFold2.emplace_back(histLen[t],
                              cfg.tagBits[t] > 1 ? cfg.tagBits[t] - 1
                                                 : 1);
    }
}

std::string
TagePredictor::name() const
{
    return "tage-" + cfg.label;
}

int8_t
TagePredictor::ctrMax() const
{
    return static_cast<int8_t>((1 << (cfg.ctrBits - 1)) - 1);
}

int8_t
TagePredictor::ctrMin() const
{
    return static_cast<int8_t>(-(1 << (cfg.ctrBits - 1)));
}

size_t
TagePredictor::bimodalIndex(uint64_t ip) const
{
    return bits(mix64(ip), 0, cfg.log2Bimodal);
}

void
TagePredictor::computeIndices(uint64_t ip)
{
    const uint64_t pc_hash = mix64(ip);
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const uint64_t path =
            mix64(pathHistory & ((1ull << std::min<unsigned>(
                                      16, histLen[t])) -
                                 1)) >>
            (t + 1);
        lastIndex[t] = bits(pc_hash ^ (pc_hash >> (t + 2)) ^
                                idxFold[t].value() ^ path,
                            0, cfg.log2Entries[t]);
        lastTag[t] = static_cast<uint16_t>(
            bits(pc_hash ^ tagFold1[t].value() ^
                     (static_cast<uint64_t>(tagFold2[t].value()) << 1),
                 0, cfg.tagBits[t]));
    }
}

bool
TagePredictor::predict(uint64_t ip, bool)
{
    computeIndices(ip);

    provider = -1;
    altTable = -1;
    for (int t = static_cast<int>(cfg.numTables) - 1; t >= 0; --t) {
        const Entry &e = tables[t][lastIndex[t]];
        if (e.tag == lastTag[t] && ownerIp[t][lastIndex[t]] != 0) {
            if (provider < 0) {
                provider = t;
            } else {
                altTable = t;
                break;
            }
        }
    }


    const bool bimodal_pred = bimodal[bimodalIndex(ip)].taken();
    if (provider < 0) {
        providerPred = altPred = finalPred = bimodal_pred;
        providerWeakNew = false;
        providerConf = 0;
        return finalPred;
    }

    const Entry &pe = tables[provider][lastIndex[provider]];
    providerPred = pe.ctr >= 0;
    providerConf = pe.ctr >= 0 ? static_cast<uint32_t>(pe.ctr)
                               : static_cast<uint32_t>(-pe.ctr - 1);
    altPred = altTable >= 0
                  ? (tables[altTable][lastIndex[altTable]].ctr >= 0)
                  : bimodal_pred;

    // Newly allocated entries (u == 0, weak counter) may be less
    // reliable than the alternate prediction; arbitrate dynamically.
    providerWeakNew =
        pe.u == 0 && (pe.ctr == 0 || pe.ctr == -1);
    finalPred = (providerWeakNew && useAltOnNa.read() >= 0) ? altPred
                                                            : providerPred;
    return finalPred;
}

void
TagePredictor::update(uint64_t ip, bool taken, bool predicted,
                      uint64_t)
{
    (void)predicted;   // equals finalPred by contract
    ++updateCount;

    if (provider >= 0) {
        Entry &pe = tables[provider][lastIndex[provider]];

        // Arbitrate the use-alt-on-newly-allocated policy.
        if (providerWeakNew && providerPred != altPred)
            useAltOnNa.update(altPred == taken);

        // Usefulness: the provider proved its value over the alternate.
        if (providerPred != altPred) {
            if (providerPred == taken) {
                if (pe.u < (1u << cfg.uBits) - 1)
                    ++pe.u;
            } else if (pe.u > 0) {
                --pe.u;
            }
        }

        // Direction counter.
        if (taken) {
            if (pe.ctr < ctrMax())
                ++pe.ctr;
        } else {
            if (pe.ctr > ctrMin())
                --pe.ctr;
        }

        // Also train the bimodal when the provider is the lowest table
        // and weak, keeping the base predictor warm.
        if (provider == 0 && (pe.ctr == 0 || pe.ctr == -1))
            bimodal[bimodalIndex(ip)].update(taken);
    } else {
        bimodal[bimodalIndex(ip)].update(taken);
    }

    if (finalPred != taken)
        allocate(ip, taken);

    if (updateCount % cfg.uResetPeriod == 0)
        decayUsefulness();

    pushHistory(taken, ip);
}

void
TagePredictor::allocate(uint64_t ip, bool taken)
{
    const unsigned first = static_cast<unsigned>(provider + 1);
    if (first >= cfg.numTables)
        return;

    // Randomized start avoids ping-pong between branches contending
    // for the same tables (Seznec's allocation throttling).
    unsigned start = first;
    if (cfg.numTables - first > 1 && rng.below(2) == 0)
        start = first + 1 +
                static_cast<unsigned>(rng.below(
                    std::min<uint64_t>(2, cfg.numTables - first - 1)));

    unsigned allocated = 0;
    bool any_free = false;
    for (unsigned t = start; t < cfg.numTables && allocated < 1; ++t) {
        Entry &e = tables[t][lastIndex[t]];
        if (e.u == 0) {
            const uint64_t evicted = ownerIp[t][lastIndex[t]];
            e.tag = lastTag[t];
            e.ctr = taken ? 0 : -1;
            e.u = 0;
            ownerIp[t][lastIndex[t]] = ip;
            if (allocListener != nullptr) {
                allocListener->onAllocation(
                    ip, t, entryBase[t] + lastIndex[t], evicted);
            }
            ++allocated;
            any_free = true;
        }
    }
    if (!any_free) {
        // Nothing free: age the candidates so future allocations can
        // succeed (usefulness decrement on allocation failure).
        for (unsigned t = first; t < cfg.numTables; ++t) {
            Entry &e = tables[t][lastIndex[t]];
            if (e.u > 0)
                --e.u;
        }
    }
}

void
TagePredictor::decayUsefulness()
{
    for (auto &table : tables)
        for (auto &e : table)
            e.u >>= 1;
}

void
TagePredictor::pushHistory(bool taken, uint64_t ip)
{
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const bool expired = history.at(histLen[t] - 1);
        idxFold[t].update(taken, expired);
        tagFold1[t].update(taken, expired);
        tagFold2[t].update(taken, expired);
    }
    history.push(taken);
    pathHistory = (pathHistory << 1) | ((ip >> 2) & 1);
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
