/**
 * @file
 * Trace sinks: the observer interface through which the interpreter (or
 * a trace file reader) streams retired instructions to consumers, plus
 * a handful of generally useful sink implementations.
 *
 * Streaming rather than materializing traces lets a single VM execution
 * feed many consumers (several predictors, the pipeline model, and
 * analyses) without storing tens of millions of records.
 */

#ifndef BPNSP_TRACE_SINK_HPP
#define BPNSP_TRACE_SINK_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace bpnsp {

/** Consumer of a retired-instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Observe one retired instruction. */
    virtual void onRecord(const TraceRecord &rec) = 0;

    /** The stream ended (program halted or budget exhausted). */
    virtual void onEnd() {}
};

/** Broadcasts each record to several sinks, in registration order. */
class FanoutSink : public TraceSink
{
  public:
    FanoutSink() = default;

    /** Construct directly from a list of sinks. */
    explicit FanoutSink(std::vector<TraceSink *> sinks)
        : outputs(std::move(sinks))
    {}

    /** Register a downstream sink (not owned). */
    void add(TraceSink *sink) { outputs.push_back(sink); }

    void
    onRecord(const TraceRecord &rec) override
    {
        for (auto *sink : outputs)
            sink->onRecord(rec);
    }

    void
    onEnd() override
    {
        for (auto *sink : outputs)
            sink->onEnd();
    }

  private:
    std::vector<TraceSink *> outputs;
};

/** Counts instructions by class; cheap sanity-check sink. */
class CountingSink : public TraceSink
{
  public:
    void
    onRecord(const TraceRecord &rec) override
    {
        ++total;
        ++byClass[static_cast<size_t>(rec.cls)];
        if (rec.isCondBranch()) {
            ++condBranches;
            if (rec.taken)
                ++takenBranches;
        }
    }

    uint64_t totalCount() const { return total; }
    uint64_t condBranchCount() const { return condBranches; }
    uint64_t takenCount() const { return takenBranches; }

    uint64_t
    classCount(InstrClass cls) const
    {
        return byClass[static_cast<size_t>(cls)];
    }

  private:
    uint64_t total = 0;
    uint64_t condBranches = 0;
    uint64_t takenBranches = 0;
    uint64_t byClass[16] = {};
};

/** Materializes the stream into a vector (tests and small traces). */
class VectorSink : public TraceSink
{
  public:
    void
    onRecord(const TraceRecord &rec) override
    {
        records.push_back(rec);
    }

    const std::vector<TraceRecord> &get() const { return records; }

  private:
    std::vector<TraceRecord> records;
};

} // namespace bpnsp

#endif // BPNSP_TRACE_SINK_HPP
