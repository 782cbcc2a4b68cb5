/**
 * @file
 * Lockstep reference test for TAGE-SC-L (bp/tage, bp/sc, bp/loop).
 *
 * The reference model below is written for obviousness, not speed: a
 * TagEntry{ctr, tag, u} per table with an explicit valid flag and owner
 * IP, a std::bitset global history whose folds are recomputed from
 * scratch on every branch, mix64 taken wherever a hash is needed, and a
 * plain statistical corrector and loop predictor. It runs beside the
 * optimized predictor on the same record stream, and every prediction,
 * provider/alternate choice, loop lookup, SC sum, threshold and
 * override, and every table allocation (with its evicted owner) must
 * agree.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bp/tagescl.hpp"
#include "core/runner.hpp"
#include "trace/sink.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

/** One table allocation, as TageAllocationListener reports it. */
struct Allocation
{
    uint64_t ip;
    unsigned table;
    uint64_t entryId;
    uint64_t evictedIp;

    bool
    operator==(const Allocation &o) const
    {
        return ip == o.ip && table == o.table && entryId == o.entryId &&
               evictedIp == o.evictedIp;
    }
};

std::ostream &
operator<<(std::ostream &os, const Allocation &a)
{
    return os << "{ip=0x" << std::hex << a.ip << std::dec
              << " table=" << a.table << " entry=" << a.entryId
              << " evicted=0x" << std::hex << a.evictedIp << std::dec
              << "}";
}

constexpr unsigned kMaxHistoryBits = 4096;
using History = std::bitset<kMaxHistoryBits>;

/** The newest `length` history bits, bit i at bit i % 64 of word i / 64. */
std::vector<uint64_t>
toWords(const History &h, unsigned length)
{
    std::vector<uint64_t> words(length / 64 + 2, 0);
    for (unsigned i = 0; i < length; ++i)
        words[i / 64] |= static_cast<uint64_t>(h[i]) << (i % 64);
    return words;
}

/**
 * XOR fold of the newest `length` history bits down to `width` bits:
 * the XOR of its consecutive width-bit chunks, so bit i lands at bit
 * i % width (foldTo() over a history longer than one word).
 */
uint32_t
foldFromScratch(const std::vector<uint64_t> &words, unsigned length,
                unsigned width)
{
    uint64_t folded = 0;
    for (unsigned lo = 0; lo < length; lo += width) {
        const unsigned n = std::min(width, length - lo);
        uint64_t chunk = words[lo / 64] >> (lo % 64);
        if (lo % 64 + n > 64)
            chunk |= words[lo / 64 + 1] << (64 - lo % 64);
        folded ^= chunk & ((1ull << n) - 1);
    }
    return static_cast<uint32_t>(folded);
}

void
pushHistory(History &h, bool taken)
{
    h <<= 1;
    h[0] = taken;
}

/** The reference TAGE. */
class RefTage
{
  public:
    struct TagEntry
    {
        int ctr = 0;
        unsigned tag = 0;
        unsigned u = 0;
        bool valid = false;
        uint64_t owner = 0;
    };

    TagePredictor::Decision last;

    explicit RefTage(const TageConfig &config)
        : cfg(config), histLen(config.histLengths()), rng(0x7a6e)
    {
        EXPECT_LE(cfg.maxHist, kMaxHistoryBits);
        for (unsigned t = 0; t < cfg.numTables; ++t)
            tables.emplace_back(1ull << cfg.log2Entries[t]);
        bimodal.assign(1ull << cfg.log2Bimodal, 2);
        index.assign(cfg.numTables, 0);
        tag.assign(cfg.numTables, 0);
    }

    bool
    predict(uint64_t ip)
    {
        const std::vector<uint64_t> words = toWords(history, cfg.maxHist);
        for (unsigned t = 0; t < cfg.numTables; ++t) {
            const unsigned len = histLen[t];
            const uint64_t path_mask =
                (1ull << std::min<unsigned>(16, len)) - 1;
            const uint64_t path = mix64(pathHistory & path_mask) >> (t + 1);
            index[t] = bits(mix64(ip) ^ (mix64(ip) >> (t + 2)) ^
                                foldFromScratch(words, len,
                                                cfg.log2Entries[t]) ^
                                path,
                            0, cfg.log2Entries[t]);
            const uint64_t tag2 =
                foldFromScratch(words, len, cfg.tagBits[t] - 1);
            tag[t] = static_cast<unsigned>(
                bits(mix64(ip) ^
                         foldFromScratch(words, len, cfg.tagBits[t]) ^
                         (tag2 << 1),
                     0, cfg.tagBits[t]));
        }

        last = TagePredictor::Decision{};
        for (int t = static_cast<int>(cfg.numTables) - 1; t >= 0; --t) {
            const TagEntry &e = tables[t][index[t]];
            if (e.valid && e.tag == tag[t]) {
                if (last.provider < 0) {
                    last.provider = t;
                } else {
                    last.altTable = t;
                    break;
                }
            }
        }
        const bool base = bimodal[bimodalIndex(ip)] >= 2;
        if (last.provider < 0) {
            last.providerPred = last.altPred = last.pred = base;
            return last.pred;
        }
        const TagEntry &pe = tables[last.provider][index[last.provider]];
        last.providerPred = pe.ctr >= 0;
        last.confidence = static_cast<uint32_t>(
            pe.ctr >= 0 ? pe.ctr : -pe.ctr - 1);
        last.altPred = last.altTable >= 0
                           ? tables[last.altTable][index[last.altTable]]
                                     .ctr >= 0
                           : base;
        last.weakNew = pe.u == 0 && (pe.ctr == 0 || pe.ctr == -1);
        last.pred = last.weakNew && useAltOnNa >= 0 ? last.altPred
                                                   : last.providerPred;
        return last.pred;
    }

    void
    update(uint64_t ip, bool taken, std::vector<Allocation> &allocs)
    {
        ++updates;
        const int ctr_max = (1 << (cfg.ctrBits - 1)) - 1;
        const int ctr_min = -(1 << (cfg.ctrBits - 1));
        const unsigned u_max = (1u << cfg.uBits) - 1;
        if (last.provider >= 0) {
            TagEntry &pe = tables[last.provider][index[last.provider]];
            if (last.weakNew && last.providerPred != last.altPred) {
                if (last.altPred == taken)
                    useAltOnNa = std::min(useAltOnNa + 1, 7);
                else
                    useAltOnNa = std::max(useAltOnNa - 1, -8);
            }
            if (last.providerPred != last.altPred) {
                if (last.providerPred == taken)
                    pe.u = std::min(pe.u + 1, u_max);
                else if (pe.u > 0)
                    --pe.u;
            }
            pe.ctr = taken ? std::min(pe.ctr + 1, ctr_max)
                           : std::max(pe.ctr - 1, ctr_min);
            if (last.provider == 0 && (pe.ctr == 0 || pe.ctr == -1))
                trainBimodal(ip, taken);
        } else {
            trainBimodal(ip, taken);
        }

        if (last.pred != taken)
            allocate(ip, taken, allocs);

        if (updates % cfg.uResetPeriod == 0) {
            for (auto &table : tables)
                for (auto &e : table)
                    e.u >>= 1;
        }

        pushHistory(history, taken);
        pathHistory = (pathHistory << 1) | ((ip >> 2) & 1);
    }

    void
    trackOther(uint64_t ip, InstrClass cls)
    {
        if (isControl(cls))
            pathHistory = (pathHistory << 1) | ((ip >> 2) & 1);
    }

  private:
    TageConfig cfg;
    std::vector<unsigned> histLen;
    std::vector<std::vector<TagEntry>> tables;
    std::vector<unsigned> bimodal;
    History history;
    uint64_t pathHistory = 0;
    int useAltOnNa = 0;
    Rng rng;
    uint64_t updates = 0;
    std::vector<uint64_t> index;
    std::vector<unsigned> tag;

    size_t
    bimodalIndex(uint64_t ip) const
    {
        return bits(mix64(ip), 0, cfg.log2Bimodal);
    }

    void
    trainBimodal(uint64_t ip, bool taken)
    {
        unsigned &c = bimodal[bimodalIndex(ip)];
        c = taken ? std::min(c + 1, 3u) : (c > 0 ? c - 1 : 0);
    }

    void
    allocate(uint64_t ip, bool taken, std::vector<Allocation> &allocs)
    {
        const unsigned first = static_cast<unsigned>(last.provider + 1);
        if (first >= cfg.numTables)
            return;
        unsigned start = first;
        if (cfg.numTables - first > 1 && rng.below(2) == 0)
            start = first + 1 +
                    static_cast<unsigned>(rng.below(std::min<uint64_t>(
                        2, cfg.numTables - first - 1)));
        for (unsigned t = start; t < cfg.numTables; ++t) {
            TagEntry &e = tables[t][index[t]];
            if (e.u == 0) {
                uint64_t id = index[t];
                for (unsigned s = 0; s < t; ++s)
                    id += tables[s].size();
                allocs.push_back({ip, t, id, e.owner});
                e = TagEntry{taken ? 0 : -1, tag[t], 0, true, ip};
                return;
            }
        }
        for (unsigned t = first; t < cfg.numTables; ++t) {
            if (tables[t][index[t]].u > 0)
                --tables[t][index[t]].u;
        }
    }
};

/** The reference loop predictor. */
class RefLoop
{
  public:
    explicit RefLoop(unsigned log2_entries)
        : indexBits(log2_entries), entries(1ull << log2_entries)
    {
    }

    LoopPredictor::LoopPrediction
    lookup(uint64_t ip) const
    {
        const Entry &e = entries[bits(mix64(ip), 0, indexBits)];
        LoopPredictor::LoopPrediction out;
        if (e.valid && e.tag == tagOf(ip) && e.confidence >= 7) {
            out.valid = true;
            out.taken = e.currentIter + 1 < e.pastIter;
        }
        return out;
    }

    void
    update(uint64_t ip, bool taken)
    {
        Entry &e = entries[bits(mix64(ip), 0, indexBits)];
        if (!e.valid || e.tag != tagOf(ip)) {
            if (!taken)
                e = Entry{tagOf(ip), 0, 0, 0, true};
            return;
        }
        if (taken) {
            if (e.currentIter < (1u << 14) - 1)
                ++e.currentIter;
            else
                e.valid = false;
            return;
        }
        const uint32_t trip = e.currentIter + 1;
        if (e.pastIter == trip) {
            e.confidence = std::min(e.confidence + 1, 7u);
        } else {
            e.pastIter = trip;
            e.confidence = 0;
        }
        e.currentIter = 0;
    }

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t pastIter = 0;
        uint32_t currentIter = 0;
        unsigned confidence = 0;
        bool valid = false;
    };

    unsigned indexBits;
    std::vector<Entry> entries;

    uint32_t
    tagOf(uint64_t ip) const
    {
        return static_cast<uint32_t>(bits(mix64(ip), indexBits, 14));
    }
};

/** The reference statistical corrector. */
class RefSc
{
    ScConfig cfg;

  public:
    int sum = 0;
    int threshold;

    explicit RefSc(const ScConfig &config)
        : cfg(config), threshold(config.initialThreshold),
          gehl(config.histLengths.size(),
               std::vector<int>(1ull << config.log2Entries, 0)),
          bias(1ull << (config.log2Entries + 1), 0),
          imliTable(1ull << config.log2Imli, 0),
          index(config.histLengths.size(), 0)
    {
    }

    bool
    predict(uint64_t ip, bool primary, uint32_t conf)
    {
        primaryPred = primary;
        sum = (primary ? 1 : -1) * static_cast<int>(3 + 2 * conf);
        biasIndex = bits((mix64(ip) << 1) | (primary ? 1 : 0), 0,
                         cfg.log2Entries + 1);
        sum += 2 * bias[biasIndex] + 1;
        const std::vector<uint64_t> words =
            toWords(history, cfg.histLengths.back());
        for (size_t t = 0; t < gehl.size(); ++t) {
            index[t] = bits(mix64(ip) ^
                                foldFromScratch(words, cfg.histLengths[t],
                                                cfg.log2Entries) ^
                                (mix64(ip) >> (t + 4)),
                            0, cfg.log2Entries);
            sum += 2 * gehl[t][index[t]] + 1;
        }
        imliIndex = bits(mix64(ip) ^ mix64(imli), 0, cfg.log2Imli);
        sum += 2 * imliTable[imliIndex] + 1;
        const bool sc_pred = sum >= 0;
        finalPred = sc_pred != primary && std::abs(sum) < threshold
                        ? primary
                        : sc_pred;
        return finalPred;
    }

    void
    update(uint64_t ip, bool taken, uint64_t target)
    {
        const bool sc_pred = sum >= 0;
        if (sc_pred != primaryPred) {
            if (sc_pred == taken) {
                if (--thresholdCtr <= -8) {
                    thresholdCtr = 0;
                    threshold = std::max(threshold - 1, 4);
                }
            } else if (++thresholdCtr >= 8) {
                thresholdCtr = 0;
                threshold = std::min(threshold + 1, 128);
            }
        }
        if (finalPred != taken || std::abs(sum) < threshold * 2) {
            const int w_max = (1 << (cfg.weightBits - 1)) - 1;
            const int w_min = -(1 << (cfg.weightBits - 1));
            const auto adjust = [&](int &w) {
                w = taken ? std::min(w + 1, w_max) : std::max(w - 1, w_min);
            };
            adjust(bias[biasIndex]);
            for (size_t t = 0; t < gehl.size(); ++t)
                adjust(gehl[t][index[t]]);
            adjust(imliTable[imliIndex]);
        }
        if (target < ip) {
            if (!taken) {
                imli = 0;
            } else if (target == lastLoopTarget) {
                imli = std::min<uint64_t>(imli + 1,
                                          (1ull << cfg.log2Imli) - 1);
            } else {
                lastLoopTarget = target;
                imli = 1;
            }
        }
        pushHistory(history, taken);
    }

  private:
    int thresholdCtr = 0;
    std::vector<std::vector<int>> gehl;
    std::vector<int> bias;
    std::vector<int> imliTable;
    History history;
    uint64_t imli = 0;
    uint64_t lastLoopTarget = 0;
    bool primaryPred = false;
    bool finalPred = false;
    std::vector<size_t> index;
    size_t biasIndex = 0;
    size_t imliIndex = 0;
};

class RecordingListener : public TageAllocationListener
{
  public:
    std::vector<Allocation> events;

    void
    onAllocation(uint64_t ip, unsigned table, uint64_t entry_id,
                 uint64_t evicted_ip) override
    {
        events.push_back({ip, table, entry_id, evicted_ip});
    }
};

/**
 * Feeds each record to the optimized TAGE-SC-L and the reference model
 * and checks every decision. Stops checking at the first divergence,
 * so one bug reports one failure.
 */
class LockstepSink : public TraceSink
{
  public:
    explicit LockstepSink(unsigned kilobytes)
        : cfg(TageSclConfig::preset(kilobytes)), sut(cfg),
          refTage(sut.tage().config()), refLoop(cfg.loopLog2Entries),
          refSc(cfg.sc)
    {
        sut.tage().setAllocationListener(&listener);
    }

    uint64_t branches = 0;
    uint64_t allocations = 0;
    uint64_t overrides = 0;
    bool diverged = false;

    void
    onRecord(const TraceRecord &rec) override
    {
        if (diverged)
            return;
        if (!rec.isCondBranch()) {
            if (isControl(rec.cls)) {
                sut.trackOther(rec.ip, rec.cls, rec.target);
                refTage.trackOther(rec.ip, rec.cls);
            }
            return;
        }
        ip = rec.ip;
        const auto loop = sut.loop().lookup(mix64(rec.ip));
        const bool pred = sut.predict(rec.ip, rec.taken);

        bool ref_pred = refTage.predict(rec.ip);
        uint32_t conf = refTage.last.confidence;
        const auto ref_loop = refLoop.lookup(rec.ip);
        if (ref_loop.valid) {
            ref_pred = ref_loop.taken;
            conf = 3;
        }
        const bool primary = ref_pred;
        ref_pred = refSc.predict(rec.ip, primary, conf);

        const TagePredictor::Decision &d = sut.tage().lastDecision();
        const TagePredictor::Decision &r = refTage.last;
        check(d.provider == r.provider, "provider", d.provider,
              r.provider);
        check(d.altTable == r.altTable, "alt table", d.altTable,
              r.altTable);
        check(d.providerPred == r.providerPred, "provider pred",
              d.providerPred, r.providerPred);
        check(d.altPred == r.altPred, "alt pred", d.altPred,
              r.altPred);
        check(d.weakNew == r.weakNew, "weak new", d.weakNew,
              r.weakNew);
        check(d.confidence == r.confidence, "confidence",
              d.confidence, r.confidence);
        check(d.pred == r.pred, "TAGE pred", d.pred, r.pred);
        check(loop.valid == ref_loop.valid, "loop valid", loop.valid,
              ref_loop.valid);
        check(loop.taken == ref_loop.taken, "loop pred", loop.taken,
              ref_loop.taken);
        check(sut.sc().lastSum() == refSc.sum, "SC sum",
              sut.sc().lastSum(), refSc.sum);
        check(sut.sc().overrideThreshold() == refSc.threshold,
              "SC threshold", sut.sc().overrideThreshold(),
              refSc.threshold);
        check(pred == ref_pred, "final pred", pred, ref_pred);
        if (ref_pred != primary)
            ++overrides;

        listener.events.clear();
        std::vector<Allocation> ref_allocs;
        sut.update(rec.ip, rec.taken, pred, rec.target);
        refTage.update(rec.ip, rec.taken, ref_allocs);
        refLoop.update(rec.ip, rec.taken);
        refSc.update(rec.ip, rec.taken, rec.target);
        if (!diverged && listener.events != ref_allocs) {
            ADD_FAILURE() << where() << ": allocations differ ("
                          << listener.events.size() << " vs "
                          << ref_allocs.size() << " reference)"
                          << (listener.events.empty() ||
                                      ref_allocs.empty()
                                  ? ""
                                  : ", first ")
                          << describeFirst(listener.events, ref_allocs);
            diverged = true;
        }
        allocations += ref_allocs.size();
        ++branches;
    }

  private:
    TageSclConfig cfg;
    TageSclPredictor sut;
    RecordingListener listener;
    RefTage refTage;
    RefLoop refLoop;
    RefSc refSc;

    uint64_t ip = 0;   ///< of the branch being checked

    std::string
    where() const
    {
        std::ostringstream os;
        os << "branch " << branches << " ip=0x" << std::hex << ip;
        return os.str();
    }

    template <typename T>
    void
    check(bool same, const char *what, T got, T want)
    {
        if (same || diverged)
            return;
        ADD_FAILURE() << where() << ": " << what << " " << got
                      << ", reference " << want;
        diverged = true;
    }

    static std::string
    describeFirst(const std::vector<Allocation> &got,
                  const std::vector<Allocation> &want)
    {
        if (got.empty() || want.empty())
            return "";
        std::ostringstream os;
        os << got.front() << " vs " << want.front();
        return os.str();
    }
};

/** Lockstep over `instructions` of a workload's first input. */
void
lockstepOnWorkload(unsigned kilobytes, const char *workload,
                   uint64_t instructions)
{
    LockstepSink sink(kilobytes);
    const uint64_t ran =
        runTrace(findWorkload(workload).build(0), {&sink}, instructions);
    EXPECT_EQ(ran, instructions);
    EXPECT_FALSE(sink.diverged);
    // The stream must exercise what it checks.
    EXPECT_GT(sink.branches, instructions / 50);
    EXPECT_GT(sink.allocations, sink.branches / 100);
    EXPECT_GT(sink.overrides, 0u);
}

/**
 * A random stream: 300 branches (IP 0 among them, which a valid bit
 * must treat like any other), each with its own taken rate, backward
 * targets for some, and unconditional jumps between them.
 */
void
lockstepOnRandomStream(unsigned kilobytes)
{
    LockstepSink sink(kilobytes);
    Rng rng(0xb0a710);
    std::vector<double> rate(300);
    for (auto &r : rate)
        r = rng.uniform();
    bool prev = false;
    for (int i = 0; i < 30000; ++i) {
        const uint64_t b = rng.below(rate.size());
        TraceRecord rec;
        rec.ip = b == 0 ? 0 : 0x400000 + b * 12;
        rec.cls = InstrClass::CondBranch;
        // Every third branch repeats the previous outcome.
        rec.taken = b % 3 == 0 ? prev : rng.chance(rate[b]);
        rec.target = b % 2 == 0 ? rec.ip + 64 : rec.ip - 96;
        prev = rec.taken;
        sink.onRecord(rec);
        if (rng.chance(0.2)) {
            TraceRecord jump;
            jump.ip = 0x500000 + rng.below(64) * 4;
            jump.cls = InstrClass::Jump;
            jump.taken = true;
            sink.onRecord(jump);
        }
    }
    EXPECT_FALSE(sink.diverged);
    EXPECT_GT(sink.allocations, 1000u);
}

constexpr uint64_t kInstructions = 200000;

} // namespace

TEST(TageReference, MatchesOn8KBSpecLike)
{
    lockstepOnWorkload(8, "mcf_like", kInstructions);
}

TEST(TageReference, MatchesOn8KBLcf)
{
    lockstepOnWorkload(8, "game", kInstructions);
}

TEST(TageReference, MatchesOn8KBInterpreter)
{
    lockstepOnWorkload(8, "interp_like", kInstructions);
}

TEST(TageReference, MatchesOn8KBRandomStream)
{
    lockstepOnRandomStream(8);
}

TEST(TageReference, MatchesOn64KBSpecLike)
{
    lockstepOnWorkload(64, "mcf_like", kInstructions);
}

TEST(TageReference, MatchesOn64KBLcf)
{
    lockstepOnWorkload(64, "game", kInstructions);
}

TEST(TageReference, MatchesOn64KBInterpreter)
{
    lockstepOnWorkload(64, "interp_like", kInstructions);
}

TEST(TageReference, MatchesOn64KBRandomStream)
{
    lockstepOnRandomStream(64);
}

TEST(TageReference, MatchesOn128KBSpecLike)
{
    lockstepOnWorkload(128, "mcf_like", kInstructions);
}

TEST(TageReference, MatchesOn128KBLcf)
{
    lockstepOnWorkload(128, "game", kInstructions);
}

TEST(TageReference, MatchesOn128KBInterpreter)
{
    lockstepOnWorkload(128, "interp_like", kInstructions);
}

TEST(TageReference, MatchesOn128KBRandomStream)
{
    lockstepOnRandomStream(128);
}
