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
 * The model is split in two. A MemorySide owns the cache hierarchy
 * and the I-cache line tracking; it depends on no capacity, so one of
 * them serves every pipeline scale of a predictor column. Each
 * CoreModel is a per-scale scoreboard reading the MemorySide's
 * per-record latencies.
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

/**
 * The core model, consuming a trace stream: a per-scale scoreboard
 * that reads a MemorySide's latch for its cache latencies.
 *
 * Branch outcomes are read from a PredictorSim that must be registered
 * *before* this sink in the same fanout, so that by the time the core
 * sees a record the predictor has already resolved it. This lets one
 * predictor feed many core configurations in a single trace pass.
 *
 * A FrontendModel may optionally be wired in the same way (registered
 * before this sink); the core then charges its per-record FTQ stall
 * cycles against fetch and flushes on target mispredicts exactly like
 * direction mispredicts, with the two flush causes accounted
 * separately. With no frontend the fetch engine is target-perfect,
 * which preserves the timing of every pre-frontend configuration
 * bit for bit.
 *
 * Constructed from (config, predictor[, frontend]) the core owns a
 * private MemorySide and steps it itself; constructed from a shared
 * MemorySide (registered before it) it reads that one, and takes its
 * predictor and frontend from it. Both give identical counters.
 */
class CoreModel : public TraceSink
{
  public:
    CoreModel(const CoreConfig &config, const PredictorSim &bp_outcomes,
              const FrontendModel *frontend = nullptr);
    CoreModel(const CoreConfig &config, const MemorySide &memory);

    void onRecord(const TraceRecord &rec) override;

    /** Results so far. */
    const PerfCounters &counters() const { return stats; }

    /** The memory side this core reads (owned or shared). */
    const MemorySide &memory() const { return mem; }

    const CoreConfig &config() const { return cfg; }

    /**
     * Issue requests that landed beyond the scheduler's cycle window
     * and were clamped into it, i.e. timed approximately. Zero on
     * every configuration the paper benches run.
     */
    uint64_t issueClamps() const { return issueSlots.clamps(); }

  private:
    CoreModel(const CoreConfig &config, std::unique_ptr<MemorySide> owned,
              const MemorySide *shared);

    /**
     * In-order slot allocator: grants at most `width` slots per cycle
     * to a monotonically nondecreasing sequence of requests.
     */
    class SlotAllocator
    {
      public:
        explicit SlotAllocator(unsigned width_) : width(width_) {}

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

      private:
        unsigned width;
        uint64_t cycle = 0;
        unsigned used = 0;
    };

    /**
     * Out-of-order slot allocator: grants at most `width` slots per
     * cycle, to requests arriving in any cycle order (the scheduler
     * wakes instructions as operands become ready, not in program
     * order). Backed by a ring of per-cycle counters whose floor
     * advances with the (monotonic) fetch stream.
     */
    class IssueWindow
    {
      public:
        explicit IssueWindow(unsigned width_)
            : width(static_cast<uint16_t>(width_)), used(kWindow, 0)
        {}

        /** Advance the window floor (cycles below are immutable). */
        void
        advanceFloor(uint64_t cycle)
        {
            if (cycle <= floor)
                return;
            // Slots of cycles dropping below the new floor are
            // recycled for the cycles entering at the top of the
            // window; clear them as they change identity.
            const uint64_t steps =
                std::min<uint64_t>(cycle - floor, kWindow);
            for (uint64_t i = 0; i < steps; ++i)
                used[(floor + i) % kWindow] = 0;
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
                ++clampCount;
            }
            while (used[c % kWindow] >= width &&
                   c + 1 < floor + kWindow) {
                ++c;
            }
            ++used[c % kWindow];
            return c;
        }

        /** Requests alloc() clamped into the window so far. */
        uint64_t clamps() const { return clampCount; }

      private:
        static constexpr uint64_t kWindow = 1ull << 15;
        uint16_t width;
        uint64_t floor = 0;
        uint64_t clampCount = 0;
        std::vector<uint16_t> used;
    };

    /** A fixed-size ring with a cursor that wraps without a divide. */
    class Ring
    {
      public:
        explicit Ring(unsigned size) : slots(size, 0) {}

        /** The slot at the cursor. */
        uint64_t &at() { return slots[pos]; }

        void
        advance()
        {
            if (++pos == slots.size())
                pos = 0;
        }

      private:
        std::vector<uint64_t> slots;
        size_t pos = 0;
    };

    CoreConfig cfg;
    std::unique_ptr<MemorySide> ownMemory;   ///< null when shared
    const MemorySide &mem;
    const PredictorSim &bp;
    const FrontendModel *fe;   ///< optional; nullptr = perfect fetch
    PerfCounters stats;

    SlotAllocator fetchSlots;
    IssueWindow issueSlots;
    SlotAllocator retireSlots;

    uint64_t regReady[kNumRegs] = {};
    Ring robRing;     ///< retire cycles, ROB window
    Ring schedRing;   ///< issue cycles, scheduler window
    Ring lqRing;      ///< load retire cycles
    Ring sqRing;      ///< store retire cycles
    uint64_t fetchResume = 0;         ///< front end stalled until here
    uint64_t lastRetire = 0;

    unsigned execLatency(const TraceRecord &rec) const;
};

} // namespace bpnsp

#endif // BPNSP_PIPELINE_CORE_HPP
