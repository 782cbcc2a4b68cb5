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
    : CoreModel(config,
                std::make_unique<MemorySide>(bp_outcomes, frontend),
                nullptr)
{
}

CoreModel::CoreModel(const CoreConfig &config, const MemorySide &memory)
    : CoreModel(config, nullptr, &memory)
{
}

CoreModel::CoreModel(const CoreConfig &config,
                     std::unique_ptr<MemorySide> owned,
                     const MemorySide *shared)
    : cfg(config), ownMemory(std::move(owned)),
      mem(ownMemory ? *ownMemory : *shared), bp(mem.predictor()),
      fe(mem.frontend()), fetchSlots(config.fetchWidth),
      issueSlots(config.issueWidth), retireSlots(config.retireWidth),
      robRing(config.robSize), schedRing(config.schedSize),
      lqRing(config.lqSize), sqRing(config.sqSize)
{
    BPNSP_ASSERT(cfg.fetchWidth >= 1 && cfg.issueWidth >= 1 &&
                     cfg.retireWidth >= 1,
                 "core widths must be >= 1: ", cfg.label);
    BPNSP_ASSERT(cfg.robSize >= 1 && cfg.schedSize >= 1 &&
                     cfg.lqSize >= 1 && cfg.sqSize >= 1,
                 "core capacities must be >= 1: ", cfg.label);
    BPNSP_ASSERT(cfg.issueWidth <= std::numeric_limits<uint16_t>::max(),
                 "issue width overflows the issue window: ", cfg.label);
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

    // ---- Front end ----
    // The fetch of this instruction cannot begin before the front end
    // recovered from the last misprediction, and cannot dispatch while
    // the ROB slot it needs is still occupied.
    const uint64_t fetch_bound = std::max(fetchResume, robRing.at());

    // Frontend stalls (BTB-miss bubbles the FTQ could not absorb)
    // delay fetch just like an I-cache miss does.
    unsigned frontend_extra = 0;
    if (fe != nullptr) {
        frontend_extra = static_cast<unsigned>(fe->lastStallCycles());
        stats.ftqStallCycles += frontend_extra;
    }
    const uint64_t fetch_cycle = fetchSlots.alloc(fetch_bound) +
                                 mem.last().icacheExtra + frontend_extra;

    // ---- Dispatch / schedule ----
    const uint64_t dispatch_ready = fetch_cycle + cfg.frontendDepth;
    uint64_t issue_bound = std::max(dispatch_ready, schedRing.at());

    // Load/store queue occupancy.
    if (rec.cls == InstrClass::Load)
        issue_bound = std::max(issue_bound, lqRing.at());
    else if (rec.cls == InstrClass::Store)
        issue_bound = std::max(issue_bound, sqRing.at());

    // Register dependencies.
    for (unsigned s = 0; s < rec.numSrc; ++s)
        issue_bound = std::max(issue_bound, regReady[rec.src[s]]);

    // Issue is out of order: the window floor rides the in-order
    // fetch stream (nothing can issue before it was fetched).
    issueSlots.advanceFloor(fetch_cycle);
    const uint64_t issue_cycle = issueSlots.alloc(issue_bound);
    schedRing.at() = issue_cycle;
    schedRing.advance();

    // ---- Execute ----
    const uint64_t complete_cycle = issue_cycle + execLatency(rec);
    if (rec.hasDst)
        regReady[rec.dst] = complete_cycle;

    // ---- Retire (in order) ----
    const uint64_t retire_cycle =
        retireSlots.alloc(std::max(complete_cycle, lastRetire));
    lastRetire = retire_cycle;
    robRing.at() = retire_cycle;
    robRing.advance();
    if (rec.cls == InstrClass::Load) {
        lqRing.at() = retire_cycle;
        lqRing.advance();
    } else if (rec.cls == InstrClass::Store) {
        sqRing.at() = retire_cycle;
        sqRing.advance();
    }

    // ---- Branch handling ----
    // Any taken control transfer ends the fetch group: the front end
    // redirects at most once per cycle, which is what ultimately
    // bounds IPC on branchy code even under perfect prediction.
    if (isControl(rec.cls) && rec.taken)
        fetchSlots.closeCycle(fetch_cycle);

    // Wrong-path fetch is squashed when the branch resolves; the front
    // end restarts after the redirect penalty. (The memory side makes
    // the refetch pay the I-cache again.)
    if (rec.isCondBranch()) {
        ++stats.condBranches;
        if (bp.lastMispredicted()) {
            ++stats.mispredicts;
            stats.directionFlushCycles += cfg.redirectPenalty;
            fetchResume = std::max(
                fetchResume, complete_cycle + cfg.redirectPenalty);
        }
    } else if (fe != nullptr && fe->lastTargetMispredict()) {
        // A wrong RAS/ITTAGE target is discovered at execute just like
        // a wrong direction, and flushes through the same mechanism —
        // only the attribution differs.
        ++stats.targetMispredicts;
        stats.targetFlushCycles += cfg.redirectPenalty;
        fetchResume = std::max(fetchResume,
                               complete_cycle + cfg.redirectPenalty);
    }

    ++stats.instructions;
    stats.cycles = std::max(stats.cycles, retire_cycle);
}

} // namespace bpnsp
