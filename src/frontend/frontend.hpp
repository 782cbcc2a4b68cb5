/**
 * @file
 * Decoupled fetch front end: BTB + RAS + ITTAGE driving a fetch-target
 * queue.
 *
 * The direction predictors in src/bp decide taken/not-taken; this
 * subsystem models everything else the fetch engine must get right to
 * keep the pipeline fed:
 *
 *  - the BTB must know *where* a taken transfer goes within the fetch
 *    cycle (a miss is a fetch bubble, not a flush),
 *  - returns are predicted by the RAS (capacity overflow and
 *    underflow are structural mispredicts),
 *  - register-indirect jumps/calls are predicted by ITTAGE (a wrong
 *    target flushes the pipeline exactly like a wrong direction).
 *
 * The fetch-target queue (FTQ) decouples branch prediction from
 * fetch: while fetch runs ahead it banks occupancy, and BTB-miss
 * bubbles drain that occupancy before they stall anything. Only the
 * residual — bubbles arriving with an empty queue — reaches the core
 * model as stall cycles. A pipeline flush (direction or target
 * mispredict) empties the queue, so post-flush code pays full price.
 * This is the standard decoupled-front-end design (Reinman et al.,
 * "A scalable front-end architecture for fast instruction delivery").
 *
 * FrontendModel is a TraceSink, so it slots into the same fan-out as
 * PredictorSim and CoreModel. Ordering contract: PredictorSim, then
 * FrontendModel, then the MemorySide, then the CoreModels; the last
 * two read lastTargetMispredict()/lastStallCycles() for the record
 * they are currently timing.
 */

#ifndef BPNSP_FRONTEND_FRONTEND_HPP
#define BPNSP_FRONTEND_FRONTEND_HPP

#include <array>
#include <cstdint>
#include <string>

#include "frontend/btb.hpp"
#include "frontend/ittage.hpp"
#include "frontend/ras.hpp"
#include "trace/sink.hpp"
#include "util/status.hpp"

namespace bpnsp {

/** Geometry of the frontend structures (the campaign sweep axis). */
struct FrontendConfig
{
    bool enabled = true;
    unsigned btbSets = 512;
    unsigned btbWays = 4;
    unsigned btbBanks = 4;
    unsigned rasDepth = 16;
    unsigned ittLog2Entries = 9;
    unsigned ittTables = 4;
    unsigned ftqDepth = 16;
    unsigned btbMissBubble = 3;   ///< fetch bubble cycles per BTB miss

    /** Disabled frontend: no stalls, no target mispredicts. */
    static FrontendConfig off();

    /** Stable label for campaign cell ids and digests. */
    std::string label() const;
};

/**
 * Parse a frontend spec string into a config.
 *
 * Grammar: "off" | "default" | assignments among
 *   btb=<sets>x<ways>   (banks fixed at min(4, sets))
 *   ras=<depth>
 *   itt=<log2Entries>
 *   ftq=<depth>
 * separated by ',' or ':' (use ':' inside campaign --frontends lists,
 * where ',' separates whole specs). Unmentioned fields keep their
 * defaults. Returns InvalidArgument on malformed input (never aborts:
 * specs arrive from the command line and the serve protocol).
 */
Status parseFrontendSpec(const std::string &spec, FrontendConfig *out);

/** Per-class target prediction counters (indexed by InstrClass). */
struct TargetClassCounters
{
    uint64_t execs = 0;
    uint64_t targetMispreds = 0;
};

/**
 * Trace-driven frontend model. Per-record results are latched for the
 * MemorySide and CoreModel; aggregate counters feed analysis, serve,
 * and obs.
 */
class FrontendModel : public TraceSink
{
  public:
    explicit FrontendModel(const FrontendConfig &config);
    ~FrontendModel() override;

    FrontendModel(const FrontendModel &) = delete;
    FrontendModel &operator=(const FrontendModel &) = delete;

    void onRecord(const TraceRecord &rec) override;
    void onEnd() override;

    /** The record just observed resolved to an unpredicted target. */
    bool lastTargetMispredict() const { return lastTargetMispred; }

    /** Fetch stall cycles the FTQ could not absorb for that record. */
    uint64_t lastStallCycles() const { return lastStall; }

    const FrontendConfig &config() const { return cfg; }

    uint64_t targetMispredicts() const { return targetMispredCount; }
    uint64_t btbMisses() const { return btb.misses(); }
    uint64_t btbLookups() const { return btb.hits() + btb.misses(); }
    uint64_t rasOverflows() const { return ras.overflows(); }
    uint64_t rasUnderflows() const { return ras.underflows(); }
    uint64_t indirectMispredicts() const { return indMispredCount; }
    uint64_t ftqStallCycles() const { return ftqStallCount; }

    /** Per-class execs/mispredicts (index = InstrClass value). */
    const TargetClassCounters &perClass(InstrClass cls) const
    {
        return classCounters[static_cast<size_t>(cls)];
    }

    /** Modeled storage across BTB + RAS + ITTAGE. */
    uint64_t storageBits() const;

  private:
    void flushObs();

    FrontendConfig cfg;
    Btb btb;
    ReturnAddressStack ras;
    Ittage ittage;

    unsigned ftqOccupancy = 0;
    bool lastTargetMispred = false;
    uint64_t lastStall = 0;

    uint64_t targetMispredCount = 0;
    uint64_t indMispredCount = 0;
    uint64_t ftqStallCount = 0;
    std::array<TargetClassCounters, 16> classCounters{};

    // Deltas already credited to the process-wide obs counters, so
    // repeated onEnd()/destructor flushes never double count (same
    // pattern as PredictorSim::flushObs).
    uint64_t flushedBtbMisses = 0;
    uint64_t flushedRasOver = 0;
    uint64_t flushedIndMispred = 0;
    uint64_t flushedFtqStalls = 0;
};

} // namespace bpnsp

#endif // BPNSP_FRONTEND_FRONTEND_HPP
