#include "pipeline/core.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace bpnsp {

MemorySide::MemorySide(const PredictorSim &bp_outcomes,
                       const FrontendModel *frontend)
    : bp(bp_outcomes), fe(frontend)
{
}

void
MemorySide::onRecord(const TraceRecord &rec)
{
    // I-cache: pay the miss latency when crossing into a new line that
    // misses; sequential fetches within a line are free.
    const uint64_t line = rec.ip >> 6;
    latch.icacheExtra = 0;
    if (line != lastFetchLine) {
        // L1I hit latency is folded into the front-end depth.
        latch.icacheExtra = hierarchy.l1i.access(rec.ip);
        lastFetchLine = line;
    }
    latch.loadLatency = rec.cls == InstrClass::Load
                            ? hierarchy.l1d.access(rec.memAddr)
                            : 0;

    // A flush, for a wrong direction or a wrong target, makes the
    // refetch pay the I-cache again.
    const bool flushed = rec.isCondBranch()
                             ? bp.lastMispredicted()
                             : fe != nullptr && fe->lastTargetMispredict();
    if (flushed)
        lastFetchLine = ~0ull;
}

CoreModel::CoreModel(const CoreConfig &config,
                     const PredictorSim &bp_outcomes,
                     const FrontendModel *frontend)
    : CoreModel(config, {1},
                std::make_unique<MemorySide>(bp_outcomes, frontend),
                nullptr)
{
}

CoreModel::CoreModel(const CoreConfig &config, const MemorySide &memory)
    : CoreModel(config, {1}, nullptr, &memory)
{
}

CoreModel::CoreModel(const CoreConfig &config,
                     const std::vector<unsigned> &scales,
                     const MemorySide &memory)
    : CoreModel(config, scales, nullptr, &memory)
{
}

CoreModel::CoreModel(const CoreConfig &config,
                     const std::vector<unsigned> &scales,
                     std::unique_ptr<MemorySide> owned,
                     const MemorySide *shared)
    : cfg(config), factors(scales), ownMemory(std::move(owned)),
      mem(ownMemory ? *ownMemory : *shared), bp(mem.predictor()),
      fe(mem.frontend()), cores(scales.size())
{
    BPNSP_ASSERT(!factors.empty(), "a core needs a scale: ", cfg.label);
    std::vector<CoreConfig> configs;
    size_t ring_words = 0;
    for (unsigned factor : factors) {
        BPNSP_ASSERT(factor >= 1, "scale factors must be >= 1: ",
                     cfg.label);
        CoreConfig c = cfg.scaled(factor);
        BPNSP_ASSERT(c.fetchWidth >= 1 && c.issueWidth >= 1 &&
                         c.retireWidth >= 1,
                     "core widths must be >= 1: ", c.label);
        BPNSP_ASSERT(c.robSize >= 1 && c.schedSize >= 1 &&
                         c.lqSize >= 1 && c.sqSize >= 1,
                     "core capacities must be >= 1: ", c.label);
        BPNSP_ASSERT(
            c.issueWidth <= std::numeric_limits<uint16_t>::max(),
            "issue width overflows the issue window: ", c.label);
        ring_words += static_cast<size_t>(c.robSize) + c.schedSize +
                      c.lqSize + c.sqSize;
        configs.push_back(std::move(c));
    }

    ringSlots = std::make_unique<uint64_t[]>(ring_words);
    windowSlots =
        std::make_unique<uint16_t[]>(IssueWindow::kWindow * cores.size());
    uint64_t *next = ringSlots.get();
    auto carve = [&next](Ring &ring, unsigned size) {
        ring.slots = next;
        ring.size = size;
        next += size;
    };
    for (size_t i = 0; i < cores.size(); ++i) {
        const CoreConfig &c = configs[i];
        Scoreboard &s = cores[i];
        s.fetchSlots.width = c.fetchWidth;
        s.retireSlots.width = c.retireWidth;
        s.issueSlots.width = static_cast<uint16_t>(c.issueWidth);
        s.issueSlots.used = windowSlots.get() + i * IssueWindow::kWindow;
        carve(s.rob, c.robSize);
        carve(s.sched, c.schedSize);
        carve(s.lq, c.lqSize);
        carve(s.sq, c.sqSize);
    }
}

unsigned
CoreModel::execLatency(const TraceRecord &rec) const
{
    switch (rec.cls) {
      case InstrClass::Mul:
        return cfg.mulLatency;
      case InstrClass::Div:
        return cfg.divLatency;
      case InstrClass::Load:
        return mem.last().loadLatency;
      case InstrClass::Store:
        return cfg.storeLatency;
      default:
        return cfg.aluLatency;
    }
}

void
CoreModel::onRecord(const TraceRecord &rec)
{
    if (ownMemory)
        ownMemory->onRecord(rec);

    // Everything that does not depend on a capacity is decoded, and
    // counted, once for every scale.
    const bool load = rec.cls == InstrClass::Load;
    const bool store = rec.cls == InstrClass::Store;
    const bool ends_group = isControl(rec.cls) && rec.taken;
    const unsigned latency = execLatency(rec);
    const unsigned depth = cfg.frontendDepth;
    const unsigned penalty = cfg.redirectPenalty;
    // Sources past numSrc read a register that is always ready; a
    // record without a destination writes one nothing reads.
    unsigned src[3];
    for (unsigned i = 0; i < 3; ++i)
        src[i] = i < rec.numSrc ? rec.src[i] : kNoSource;
    const unsigned dst = rec.hasDst ? rec.dst : kNoDest;

    // Frontend stalls (BTB-miss bubbles the FTQ could not absorb)
    // delay fetch just like an I-cache miss does.
    unsigned frontend_extra = 0;
    if (fe != nullptr) {
        frontend_extra = static_cast<unsigned>(fe->lastStallCycles());
        shared.ftqStallCycles += frontend_extra;
    }
    const unsigned fetch_extra = mem.last().icacheExtra + frontend_extra;

    // Wrong-path fetch is squashed when the branch resolves; the front
    // end restarts after the redirect penalty. (The memory side makes
    // the refetch pay the I-cache again.)
    bool flush = false;
    if (rec.isCondBranch()) {
        ++shared.condBranches;
        if (bp.lastMispredicted()) {
            ++shared.mispredicts;
            shared.directionFlushCycles += penalty;
            flush = true;
        }
    } else if (fe != nullptr && fe->lastTargetMispredict()) {
        // A wrong RAS/ITTAGE target is discovered at execute just like
        // a wrong direction, and flushes through the same mechanism —
        // only the attribution differs.
        ++shared.targetMispredicts;
        shared.targetFlushCycles += penalty;
        flush = true;
    }
    ++shared.instructions;

    for (Scoreboard &s : cores) {
        // ---- Front end ----
        // The fetch of this instruction cannot begin before the front
        // end recovered from the last misprediction, and cannot
        // dispatch while the ROB slot it needs is still occupied.
        const uint64_t fetch_cycle =
            s.fetchSlots.alloc(std::max(s.fetchResume, s.rob.at())) +
            fetch_extra;

        // ---- Dispatch / schedule ----
        uint64_t issue_bound =
            std::max(fetch_cycle + depth, s.sched.at());

        // Load/store queue occupancy.
        if (load)
            issue_bound = std::max(issue_bound, s.lq.at());
        else if (store)
            issue_bound = std::max(issue_bound, s.sq.at());

        // Register dependencies.
        issue_bound = std::max({issue_bound, s.regReady[src[0]],
                                s.regReady[src[1]], s.regReady[src[2]]});

        // Issue is out of order: the window floor rides the fetch
        // stream (nothing can issue before it was fetched).
        s.issueSlots.advanceFloor(fetch_cycle);
        const uint64_t issue_cycle = s.issueSlots.alloc(issue_bound);
        s.sched.at() = issue_cycle;
        s.sched.advance();

        // ---- Execute ----
        const uint64_t complete_cycle = issue_cycle + latency;
        s.regReady[dst] = complete_cycle;

        // ---- Retire (in order) ----
        const uint64_t retire_cycle =
            s.retireSlots.alloc(std::max(complete_cycle, s.lastRetire));
        s.rob.at() = retire_cycle;
        s.rob.advance();
        if (load) {
            s.lq.at() = retire_cycle;
            s.lq.advance();
        } else if (store) {
            s.sq.at() = retire_cycle;
            s.sq.advance();
        }

        // ---- Branch handling ----
        // Any taken control transfer ends the fetch group: the front
        // end redirects at most once per cycle, which is what
        // ultimately bounds IPC on branchy code even under perfect
        // prediction.
        if (ends_group)
            s.fetchSlots.closeCycle(fetch_cycle);
        if (flush)
            s.fetchResume =
                std::max(s.fetchResume, complete_cycle + penalty);

        s.lastFetch = fetch_cycle;
        s.lastIssue = issue_cycle;
        // Retire is in order, so the last retire cycle is the cycle
        // count.
        s.lastRetire = retire_cycle;
    }
}

} // namespace bpnsp
