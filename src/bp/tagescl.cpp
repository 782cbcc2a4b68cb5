#include "bp/tagescl.hpp"

#include "util/bitops.hpp"

namespace bpnsp {

TageSclConfig
TageSclConfig::preset(unsigned kilobytes)
{
    TageSclConfig cfg;
    cfg.tage = TageConfig::preset(kilobytes);
    if (kilobytes >= 64) {
        cfg.sc.log2Entries = 10;
        cfg.loopLog2Entries = 8;
    }
    return cfg;
}

TageSclPredictor::TageSclPredictor(const TageSclConfig &config)
    : cfg(config), tageComp(config.tage),
      loopComp(config.loopLog2Entries), scComp(config.sc)
{
}

std::string
TageSclPredictor::name() const
{
    return "tage-sc-l-" + cfg.tage.label;
}

bool
TageSclPredictor::predict(uint64_t ip, bool)
{
    pcHash = mix64(ip);
    bool pred = tageComp.predictHashed(pcHash);
    uint32_t conf = tageComp.lastDecision().confidence;

    if (cfg.enableLoop) {
        const auto loop = loopComp.lookup(pcHash);
        if (loop.valid) {
            pred = loop.taken;
            conf = 3;   // a confident loop prediction is strong
        }
    }

    if (cfg.enableSc)
        pred = scComp.predict(pcHash, pred, conf);
    return pred;
}

void
TageSclPredictor::update(uint64_t ip, bool taken, bool predicted,
                         uint64_t target)
{
    // Components observe the same in-order update stream. TAGE's
    // `predicted` argument is its own last output by contract.
    tageComp.update(ip, taken, predicted, target);
    if (cfg.enableLoop)
        loopComp.update(pcHash, taken);
    if (cfg.enableSc)
        scComp.update(ip, taken, target);
}

void
TageSclPredictor::trackOther(uint64_t ip, InstrClass cls,
                             uint64_t target)
{
    tageComp.trackOther(ip, cls, target);
}

uint64_t
TageSclPredictor::storageBits() const
{
    uint64_t total = tageComp.storageBits();
    if (cfg.enableLoop)
        total += loopComp.storageBits();
    if (cfg.enableSc)
        total += scComp.storageBits();
    return total;
}

} // namespace bpnsp
