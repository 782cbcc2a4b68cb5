/**
 * @file
 * Trace-driven out-of-order core timing model.
 *
 * A dependency-aware scoreboard in the spirit of ChampSim's simplified
 * core: each retired instruction is assigned fetch, issue, complete,
 * and retire cycles subject to (1) front-end width and I-cache misses,
 * (2) ROB/scheduler/LQ/SQ occupancy, (3) register dependencies and
 * execution latencies (loads probe the D-cache hierarchy), (4) issue
 * and retire widths, and (5) branch mispredictions, which stall the
 * front end until the branch resolves plus a redirect penalty.
 *
 * A predictor column of the paper's IPC studies is one chain of
 * sinks: PredictorSim -> [FrontendModel] -> MemorySide -> CoreModel.
 * The MemorySide owns the cache hierarchy and the I-cache line
 * tracking; it depends on no capacity, so one serves every scale. The
 * CoreModel holds one scoreboard per pipeline scale and steps them
 * all in one onRecord: the record, its latencies and its flush
 * latches are decoded once, and the counters that no capacity changes
 * (instructions, branches, mispredicts, flush and FTQ-stall cycles)
 * are counted once; only the cycle count is per scale. A single-scale
 * core is the same class with one scale. tests/test_core_reference.cpp
 * checks every record's fetch, issue and retire cycle at every scale
 * against a naive reference scoreboard.
 *
 * This reproduces the mechanism behind the paper's IPC results: as
 * capacities scale up, correctly-predicted code exposes more ILP while
 * each misprediction still serializes the machine, so the misprediction
 * penalty dominates and IPC saturates (Fig. 1, Fig. 5).
 */

#ifndef BPNSP_PIPELINE_CORE_HPP
#define BPNSP_PIPELINE_CORE_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bp/sim.hpp"
#include "frontend/frontend.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/core_config.hpp"
#include "trace/sink.hpp"
#include "vm/isa.hpp"

namespace bpnsp {

/** Aggregate performance counters of one core simulation. */
struct PerfCounters
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t condBranches = 0;
    uint64_t mispredicts = 0;

    // Frontend-attributed events (zero when no FrontendModel is wired
    // in: the legacy configuration assumes a perfect fetch engine).
    uint64_t targetMispredicts = 0;   ///< wrong RAS/ITTAGE targets
    uint64_t ftqStallCycles = 0;      ///< BTB bubbles the FTQ missed
    uint64_t directionFlushCycles = 0;///< flush cycles: wrong direction
    uint64_t targetFlushCycles = 0;   ///< flush cycles: wrong target

    /** Instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Mispredictions per kilo-instruction. */
    double
    mpki() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(mispredicts) /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    /** Target mispredictions per kilo-instruction. */
    double
    targetMpki() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(targetMispredicts) /
                         static_cast<double>(instructions)
                   : 0.0;
    }
};

/** What a MemorySide latched for the record it saw last. */
struct MemoryLatch
{
    unsigned icacheExtra = 0;   ///< I-cache cycles this fetch paid
    unsigned loadLatency = 0;   ///< D-cache hierarchy latency (loads)
};

/**
 * The memory side of the core model: the cache hierarchy plus the
 * I-cache fetch-line tracking, producing one MemoryLatch per record.
 *
 * Nothing here depends on a core's capacities: the access sequence is
 * fixed by the records, the predictor's lastMispredicted() and the
 * frontend's lastTargetMispredict() (a flush makes the refetch pay the
 * I-cache again). So every scale of one predictor column can read one
 * shared MemorySide. Ordering contract: register it after the
 * PredictorSim (and FrontendModel) it reads and before the CoreModels
 * that read it.
 */
class MemorySide : public TraceSink
{
  public:
    explicit MemorySide(const PredictorSim &bp_outcomes,
                        const FrontendModel *frontend = nullptr);

    void onRecord(const TraceRecord &rec) override;

    /** Latencies of the record just observed. */
    const MemoryLatch &last() const { return latch; }

    /** Cache hierarchy (for miss statistics). */
    const CacheHierarchy &caches() const { return hierarchy; }

    const PredictorSim &predictor() const { return bp; }
    const FrontendModel *frontend() const { return fe; }

  private:
    const PredictorSim &bp;
    const FrontendModel *fe;   ///< optional; nullptr = perfect fetch
    CacheHierarchy hierarchy;
    uint64_t lastFetchLine = ~0ull;
    MemoryLatch latch;
};

/** The cycles the core gave the record it saw last, at one scale. */
struct CoreTiming
{
    uint64_t fetch = 0;    ///< fetch cycle, I-cache and FTQ stalls paid
    uint64_t issue = 0;
    uint64_t retire = 0;
};

/**
 * The core model, consuming a trace stream: one scoreboard per
 * pipeline scale, all reading one MemorySide's latch for their cache
 * latencies.
 *
 * Branch outcomes are read from a PredictorSim that must be registered
 * *before* this sink in the same fanout, so that by the time the core
 * sees a record the predictor has already resolved it.
 *
 * A FrontendModel may optionally be wired in the same way (registered
 * before this sink); the core then charges its per-record FTQ stall
 * cycles against fetch and flushes on target mispredicts exactly like
 * direction mispredicts, with the two flush causes accounted
 * separately. With no frontend the fetch engine is target-perfect,
 * which preserves the timing of every pre-frontend configuration
 * bit for bit.
 *
 * Constructed from (config, scales, memory) it times `config` scaled
 * by each factor over a shared MemorySide (registered before it),
 * taking its predictor and frontend from that. Constructed from
 * (config, memory) it is the one-scale case at `config` itself; from
 * (config, predictor[, frontend]) it also owns a private MemorySide
 * and steps it itself. Every form gives identical counters.
 */
class CoreModel : public TraceSink
{
  public:
    CoreModel(const CoreConfig &config, const PredictorSim &bp_outcomes,
              const FrontendModel *frontend = nullptr);
    CoreModel(const CoreConfig &config, const MemorySide &memory);
    CoreModel(const CoreConfig &config, const std::vector<unsigned> &scales,
              const MemorySide &memory);

    void onRecord(const TraceRecord &rec) override;

    /** The scale factors timed, in construction order. */
    const std::vector<unsigned> &scales() const { return factors; }

    /** Results so far at scale index `scale`. */
    PerfCounters
    counters(size_t scale = 0) const
    {
        PerfCounters out = shared;
        out.cycles = cores.at(scale).lastRetire;
        return out;
    }

    /** Cycles of the record seen last, at scale index `scale`. */
    CoreTiming
    lastTiming(size_t scale = 0) const
    {
        const Scoreboard &s = cores.at(scale);
        return {s.lastFetch, s.lastIssue, s.lastRetire};
    }

    /** The memory side this core reads (owned or shared). */
    const MemorySide &memory() const { return mem; }

    /** The unscaled configuration. */
    const CoreConfig &config() const { return cfg; }

    /**
     * Issue requests at scale index `scale` that landed beyond the
     * scheduler's cycle window and were clamped into it, i.e. timed
     * approximately. Zero on every configuration the paper benches run.
     */
    uint64_t
    issueClamps(size_t scale = 0) const
    {
        return cores.at(scale).issueSlots.clamps;
    }

  private:
    CoreModel(const CoreConfig &config, const std::vector<unsigned> &scales,
              std::unique_ptr<MemorySide> owned, const MemorySide *shared);

    /**
     * In-order slot allocator: grants at most `width` slots per cycle
     * to a monotonically nondecreasing sequence of requests.
     */
    struct SlotAllocator
    {
        unsigned width = 1;
        uint64_t cycle = 0;
        unsigned used = 0;

        /** Earliest cycle >= bound with a free slot; consumes it. */
        uint64_t
        alloc(uint64_t bound)
        {
            if (bound > cycle) {
                cycle = bound;
                used = 1;
            } else if (used < width) {
                ++used;
            } else {
                ++cycle;
                used = 1;
            }
            return cycle;
        }

        /**
         * Close the group at `at`: no further slots are granted in
         * that cycle. Models the front end's one-taken-branch-per-
         * cycle redirect limit.
         */
        void
        closeCycle(uint64_t at)
        {
            if (at >= cycle) {
                cycle = at;
                used = width;
            }
        }
    };

    /**
     * Out-of-order slot allocator: grants at most `width` slots per
     * cycle, to requests arriving in any cycle order (the scheduler
     * wakes instructions as operands become ready, not in program
     * order). Backed by a ring of kWindow per-cycle counters whose
     * floor advances with the fetch stream.
     */
    struct IssueWindow
    {
        static constexpr uint64_t kWindow = 1ull << 15;

        uint16_t *used = nullptr;   ///< kWindow counters
        uint16_t width = 1;
        uint64_t floor = 0;
        uint64_t clamps = 0;   ///< requests alloc() clamped so far

        /** Advance the window floor (cycles below are immutable). */
        void
        advanceFloor(uint64_t cycle)
        {
            if (cycle <= floor)
                return;
            // Counters of cycles dropping below the new floor are
            // recycled for the cycles entering at the top of the
            // window; clear them as they change identity. They are
            // one range of the ring, so at most two spans of it.
            const uint64_t steps =
                std::min<uint64_t>(cycle - floor, kWindow);
            const uint64_t lo = floor % kWindow;
            const uint64_t head = std::min(steps, kWindow - lo);
            std::fill_n(used + lo, head, uint16_t{0});
            std::fill_n(used, steps - head, uint16_t{0});
            floor = cycle;
        }

        /** Earliest cycle >= bound with a free slot; consumes it. */
        uint64_t
        alloc(uint64_t bound)
        {
            uint64_t c = std::max(bound, floor);
            // Clamp far-future requests into the window. This bends
            // the model's timing, so it is counted; tests pin it at 0
            // on the paper's configurations.
            if (c >= floor + kWindow) {
                c = floor + kWindow - 1;
                ++clamps;
            }
            while (used[c % kWindow] >= width &&
                   c + 1 < floor + kWindow) {
                ++c;
            }
            ++used[c % kWindow];
            return c;
        }
    };

    /** A fixed-size ring with a cursor that wraps without a divide. */
    struct Ring
    {
        uint64_t *slots = nullptr;
        uint32_t size = 1;
        uint32_t pos = 0;

        /** The slot at the cursor. */
        uint64_t &at() { return slots[pos]; }

        void
        advance()
        {
            if (++pos == size)
                pos = 0;
        }
    };

    /** Register index that sources past numSrc read: always ready. */
    static constexpr unsigned kNoSource = kNumRegs;
    /** Register index written when a record has no destination. */
    static constexpr unsigned kNoDest = kNumRegs + 1;

    /** One scale's scoreboard; its rings point into `ringSlots`. */
    struct Scoreboard
    {
        SlotAllocator fetchSlots;
        IssueWindow issueSlots;
        SlotAllocator retireSlots;
        Ring rob;     ///< retire cycles, ROB window
        Ring sched;   ///< issue cycles, scheduler window
        Ring lq;      ///< load retire cycles
        Ring sq;      ///< store retire cycles
        uint64_t regReady[kNumRegs + 2] = {};
        uint64_t fetchResume = 0;   ///< front end stalled until here
        uint64_t lastFetch = 0;
        uint64_t lastIssue = 0;
        uint64_t lastRetire = 0;    ///< also the cycle count
    };

    CoreConfig cfg;
    std::vector<unsigned> factors;
    std::unique_ptr<MemorySide> ownMemory;   ///< null when shared
    const MemorySide &mem;
    const PredictorSim &bp;
    const FrontendModel *fe;   ///< optional; nullptr = perfect fetch
    PerfCounters shared;       ///< every counter but cycles
    std::vector<Scoreboard> cores;
    std::unique_ptr<uint64_t[]> ringSlots;     ///< every scale's rings
    std::unique_ptr<uint16_t[]> windowSlots;   ///< every issue window

    unsigned execLatency(const TraceRecord &rec) const;
};

} // namespace bpnsp

#endif // BPNSP_PIPELINE_CORE_HPP
