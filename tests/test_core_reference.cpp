/**
 * @file
 * Lockstep reference test for the core timing model (pipeline/core).
 *
 * The reference scoreboard below is written for obviousness, not
 * speed, straight from the model's rules: explicit per-cycle slot maps
 * for fetch, issue and retire in place of the allocators and the
 * issue-window ring, plain std::deque ROB, scheduler, LQ and SQ
 * windows in place of the rings, and no clamp. It runs one scoreboard
 * per scale beside a multi-scale CoreModel on the same record stream,
 * and every record's fetch, issue and retire cycle must agree at every
 * scale. Both read the same MemorySide latch; the memory rule has its
 * own reference in test_pipeline.cpp.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "frontend/frontend.hpp"
#include "pipeline/core.hpp"
#include "trace/sink.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

/**
 * A capacity-bounded window of the newest values: `oldest()` is the
 * value pushed `capacity` pushes ago once the window is full, 0 (no
 * constraint) before.
 */
class Window
{
  public:
    explicit Window(unsigned capacity_) : capacity(capacity_) {}

    uint64_t
    oldest() const
    {
        return values.size() == capacity ? values.front() : 0;
    }

    void
    push(uint64_t v)
    {
        if (values.size() == capacity)
            values.pop_front();
        values.push_back(v);
    }

  private:
    unsigned capacity;
    std::deque<uint64_t> values;
};

/**
 * In-order slot map: each request takes the earliest cycle at or
 * after both its bound and the previous grant that has fewer than
 * `width` slots taken.
 */
class InOrderSlots
{
  public:
    explicit InOrderSlots(unsigned width_) : width(width_) {}

    uint64_t
    take(uint64_t bound)
    {
        uint64_t c = std::max(bound, lastGrant);
        while (taken[c] >= width)
            ++c;
        ++taken[c];
        lastGrant = c;
        forgetBefore(c);
        return c;
    }

    /** Fill cycle `at` unless an earlier grant already moved past it. */
    void
    fill(uint64_t at)
    {
        if (at < lastGrant)
            return;
        taken[at] = width;
        lastGrant = at;
        forgetBefore(at);
    }

  private:
    unsigned width;
    uint64_t lastGrant = 0;
    std::map<uint64_t, unsigned> taken;

    /** No later request can land before the last grant. */
    void
    forgetBefore(uint64_t c)
    {
        taken.erase(taken.begin(), taken.lower_bound(c));
    }
};

/** What the reference gave one record. */
struct Timing
{
    uint64_t fetch;
    uint64_t issue;
    uint64_t retire;
};

/** The reference scoreboard for one scale. */
class RefCore
{
  public:
    RefCore(const CoreConfig &config, const MemorySide &memory)
        : cfg(config), mem(memory), fetchSlots(config.fetchWidth),
          retireSlots(config.retireWidth), rob(config.robSize),
          sched(config.schedSize), lq(config.lqSize), sq(config.sqSize)
    {}

    Timing
    step(const TraceRecord &rec)
    {
        const PredictorSim &bp = mem.predictor();
        const FrontendModel *fe = mem.frontend();
        const bool load = rec.cls == InstrClass::Load;
        const bool store = rec.cls == InstrClass::Store;

        // Fetch: after the last redirect, once the ROB has room, and
        // then late by the I-cache miss and the FTQ bubble.
        uint64_t fetch =
            fetchSlots.take(std::max(fetchResume, rob.oldest()));
        fetch += mem.last().icacheExtra;
        if (fe != nullptr)
            fetch += fe->lastStallCycles();

        // Issue: dispatched, scheduler and LSQ room, operands ready,
        // never before the latest fetch, and a free issue slot.
        uint64_t bound =
            std::max(fetch + cfg.frontendDepth, sched.oldest());
        if (load)
            bound = std::max(bound, lq.oldest());
        if (store)
            bound = std::max(bound, sq.oldest());
        for (unsigned i = 0; i < rec.numSrc; ++i)
            bound = std::max(bound, regReady[rec.src[i]]);
        latestFetch = std::max(latestFetch, fetch);
        uint64_t issue = std::max(bound, latestFetch);
        while (issueTaken[issue] >= cfg.issueWidth)
            ++issue;
        ++issueTaken[issue];
        issueTaken.erase(issueTaken.begin(),
                         issueTaken.lower_bound(latestFetch));
        sched.push(issue);

        uint64_t latency = cfg.aluLatency;
        if (rec.cls == InstrClass::Mul)
            latency = cfg.mulLatency;
        else if (rec.cls == InstrClass::Div)
            latency = cfg.divLatency;
        else if (load)
            latency = mem.last().loadLatency;
        else if (store)
            latency = cfg.storeLatency;
        const uint64_t complete = issue + latency;
        if (rec.hasDst)
            regReady[rec.dst] = complete;

        // Retire in order.
        const uint64_t retire =
            retireSlots.take(std::max(complete, lastRetire));
        lastRetire = retire;
        rob.push(retire);
        if (load)
            lq.push(retire);
        if (store)
            sq.push(retire);

        // A taken transfer ends its fetch cycle; a wrong direction or
        // target refetches a redirect penalty after it completes.
        if (isControl(rec.cls) && rec.taken)
            fetchSlots.fill(fetch);
        const bool flush =
            rec.isCondBranch()
                ? bp.lastMispredicted()
                : fe != nullptr && fe->lastTargetMispredict();
        if (flush)
            fetchResume =
                std::max(fetchResume, complete + cfg.redirectPenalty);
        return {fetch, issue, retire};
    }

    uint64_t lastRetire = 0;

  private:
    CoreConfig cfg;
    const MemorySide &mem;
    InOrderSlots fetchSlots;
    InOrderSlots retireSlots;
    std::map<uint64_t, unsigned> issueTaken;
    Window rob;     ///< retire cycles
    Window sched;   ///< issue cycles
    Window lq;      ///< load retire cycles
    Window sq;      ///< store retire cycles
    uint64_t regReady[kNumRegs] = {};
    uint64_t fetchResume = 0;
    uint64_t latestFetch = 0;
};

/**
 * Steps one RefCore per scale and checks the CoreModel's latch against
 * them record by record; registered after the CoreModel it checks.
 * Stops checking at the first divergence.
 */
class LockstepSink : public TraceSink
{
  public:
    LockstepSink(const CoreConfig &base,
                 const std::vector<unsigned> &scales,
                 const MemorySide &memory, const CoreModel &checked_)
        : checked(checked_)
    {
        for (unsigned scale : scales)
            refs.emplace_back(base.scaled(scale), memory);
    }

    void
    onRecord(const TraceRecord &rec) override
    {
        for (size_t s = 0; s < refs.size(); ++s) {
            const Timing want = refs[s].step(rec);
            const CoreTiming got = checked.lastTiming(s);
            if (diverged || (got.fetch == want.fetch &&
                             got.issue == want.issue &&
                             got.retire == want.retire))
                continue;
            std::ostringstream os;
            os << "record " << records << " ip=0x" << std::hex << rec.ip
               << std::dec << " at " << checked.scales()[s]
               << "x: fetch/issue/retire " << got.fetch << "/"
               << got.issue << "/" << got.retire << ", reference "
               << want.fetch << "/" << want.issue << "/" << want.retire;
            ADD_FAILURE() << os.str();
            diverged = true;
        }
        ++records;
    }

    std::vector<RefCore> refs;
    uint64_t records = 0;
    bool diverged = false;

  private:
    const CoreModel &checked;
};

const std::vector<unsigned> kScales{1, 2, 4, 8, 16, 32};

constexpr uint64_t kInstructions = 200000;

/**
 * Lockstep over a workload's first input under `predictor`, with the
 * default frontend wired in when `with_frontend`.
 */
void
lockstepOnWorkload(const char *workload, const char *predictor,
                   bool with_frontend)
{
    auto bp = makePredictor(predictor);
    PredictorSim sim(*bp, /*collect_per_branch=*/false);
    FrontendModel fe{FrontendConfig{}};
    MemorySide memory(sim, with_frontend ? &fe : nullptr);
    const CoreConfig base = CoreConfig::skylake();
    CoreModel core(base, kScales, memory);
    LockstepSink lockstep(base, kScales, memory, core);

    std::vector<TraceSink *> sinks{&sim};
    if (with_frontend)
        sinks.push_back(&fe);
    sinks.insert(sinks.end(), {&memory, &core, &lockstep});
    const uint64_t ran =
        runWorkloadTrace(findWorkload(workload), 0, sinks, kInstructions);

    EXPECT_EQ(ran, kInstructions);
    EXPECT_EQ(lockstep.records, kInstructions);
    EXPECT_FALSE(lockstep.diverged);
    for (size_t s = 0; s < kScales.size(); ++s) {
        SCOPED_TRACE(testing::Message() << kScales[s] << "x");
        EXPECT_EQ(core.issueClamps(s), 0u);
        EXPECT_EQ(core.counters(s).cycles, lockstep.refs[s].lastRetire);
        EXPECT_EQ(core.counters(s).instructions, kInstructions);
    }
    // The stream must exercise what it checks.
    const PerfCounters c = core.counters(0);
    EXPECT_GT(memory.caches().l1i.misses(), 0u);
    EXPECT_GT(memory.caches().l1d.misses(), 0u);
    if (std::string(predictor) != "perfect") {
        EXPECT_GT(c.mispredicts, 0u);
    }
    if (with_frontend) {
        EXPECT_GT(c.ftqStallCycles, 0u);
        EXPECT_GT(c.targetMispredicts, 0u);
    }
}

} // namespace

TEST(CoreReference, MatchesOnSpecLikePerfect)
{
    lockstepOnWorkload("gcc_like", "perfect", false);
}

TEST(CoreReference, MatchesOnSpecLikeTage)
{
    lockstepOnWorkload("gcc_like", "tage-sc-l-8KB", false);
}

TEST(CoreReference, MatchesOnLcfPerfect)
{
    lockstepOnWorkload("rdbms", "perfect", false);
}

TEST(CoreReference, MatchesOnLcfTage)
{
    lockstepOnWorkload("rdbms", "tage-sc-l-8KB", false);
}

TEST(CoreReference, MatchesOnInterpreterWithFrontendPerfect)
{
    lockstepOnWorkload("interp_like", "perfect", true);
}

TEST(CoreReference, MatchesOnInterpreterWithFrontendTage)
{
    lockstepOnWorkload("interp_like", "tage-sc-l-8KB", true);
}
