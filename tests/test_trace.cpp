/**
 * @file
 * Tests for the trace module: records, sinks, and the slicer.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "trace/slicer.hpp"

using namespace bpnsp;

namespace {

TraceRecord
makeRecord(uint64_t ip, InstrClass cls = InstrClass::Alu)
{
    TraceRecord r;
    r.ip = ip;
    r.cls = cls;
    r.fallthrough = ip + 4;
    return r;
}

TraceRecord
makeBranch(uint64_t ip, bool taken, uint64_t target)
{
    TraceRecord r = makeRecord(ip, InstrClass::CondBranch);
    r.taken = taken;
    r.target = target;
    return r;
}

} // namespace

TEST(Record, NextIp)
{
    EXPECT_EQ(makeBranch(100, true, 200).nextIp(), 200u);
    EXPECT_EQ(makeBranch(100, false, 200).nextIp(), 104u);
    EXPECT_EQ(makeRecord(100).nextIp(), 104u);
    TraceRecord jump = makeRecord(100, InstrClass::Jump);
    jump.taken = true;
    jump.target = 400;
    EXPECT_EQ(jump.nextIp(), 400u);
}

TEST(Record, IsControl)
{
    EXPECT_TRUE(isControl(InstrClass::CondBranch));
    EXPECT_TRUE(isControl(InstrClass::Jump));
    EXPECT_TRUE(isControl(InstrClass::Call));
    EXPECT_TRUE(isControl(InstrClass::Ret));
    EXPECT_TRUE(isControl(InstrClass::JumpInd));
    EXPECT_TRUE(isControl(InstrClass::CallInd));
    EXPECT_FALSE(isControl(InstrClass::Alu));
    EXPECT_FALSE(isControl(InstrClass::Load));
    EXPECT_FALSE(isControl(InstrClass::Halt));
}

TEST(Record, ClassNames)
{
    EXPECT_STREQ(instrClassName(InstrClass::Alu), "alu");
    EXPECT_STREQ(instrClassName(InstrClass::CondBranch), "cond_branch");
    EXPECT_STREQ(instrClassName(InstrClass::JumpInd), "jump_ind");
    EXPECT_STREQ(instrClassName(InstrClass::CallInd), "call_ind");
}

TEST(Sinks, FanoutDeliversInOrder)
{
    VectorSink a;
    VectorSink b;
    FanoutSink fan({&a, &b});
    fan.onRecord(makeRecord(1));
    fan.onRecord(makeRecord(2));
    fan.onEnd();
    ASSERT_EQ(a.get().size(), 2u);
    ASSERT_EQ(b.get().size(), 2u);
    EXPECT_EQ(a.get()[0].ip, 1u);
    EXPECT_EQ(b.get()[1].ip, 2u);
}

TEST(Sinks, CountingSink)
{
    CountingSink counter;
    counter.onRecord(makeRecord(1));
    counter.onRecord(makeBranch(2, true, 100));
    counter.onRecord(makeBranch(3, false, 100));
    counter.onRecord(makeRecord(4, InstrClass::Load));
    EXPECT_EQ(counter.totalCount(), 4u);
    EXPECT_EQ(counter.condBranchCount(), 2u);
    EXPECT_EQ(counter.takenCount(), 1u);
    EXPECT_EQ(counter.classCount(InstrClass::Load), 1u);
}

TEST(Sinks, LimitSink)
{
    VectorSink inner;
    LimitSink limit(2, inner);
    for (int i = 0; i < 5; ++i)
        limit.onRecord(makeRecord(i));
    EXPECT_EQ(inner.get().size(), 2u);
    EXPECT_TRUE(limit.exhausted());
}

namespace {

/** Slice listener that records boundaries for verification. */
class RecordingListener : public SliceListener
{
  public:
    std::vector<uint64_t> begins;
    std::vector<std::pair<uint64_t, uint64_t>> ends;
    uint64_t records = 0;
    bool traceEnded = false;

    void beginSlice(uint64_t index) override { begins.push_back(index); }
    void onSliceRecord(const TraceRecord &) override { ++records; }

    void
    endSlice(uint64_t index, uint64_t length) override
    {
        ends.emplace_back(index, length);
    }

    void onTraceEnd() override { traceEnded = true; }
};

} // namespace

TEST(Slicer, ExactSlices)
{
    RecordingListener listener;
    Slicer slicer(3, listener);
    for (int i = 0; i < 9; ++i)
        slicer.onRecord(makeRecord(i));
    slicer.onEnd();
    EXPECT_EQ(listener.begins, (std::vector<uint64_t>{0, 1, 2}));
    ASSERT_EQ(listener.ends.size(), 3u);
    for (const auto &[idx, len] : listener.ends)
        EXPECT_EQ(len, 3u);
    EXPECT_EQ(listener.records, 9u);
    EXPECT_TRUE(listener.traceEnded);
    EXPECT_EQ(slicer.sliceCount(), 3u);
}

TEST(Slicer, PartialFinalSlice)
{
    RecordingListener listener;
    Slicer slicer(4, listener);
    for (int i = 0; i < 6; ++i)
        slicer.onRecord(makeRecord(i));
    slicer.onEnd();
    ASSERT_EQ(listener.ends.size(), 2u);
    EXPECT_EQ(listener.ends[0].second, 4u);
    EXPECT_EQ(listener.ends[1].second, 2u);
}

TEST(Slicer, EmptyTrace)
{
    RecordingListener listener;
    Slicer slicer(4, listener);
    slicer.onEnd();
    EXPECT_TRUE(listener.begins.empty());
    EXPECT_TRUE(listener.ends.empty());
    EXPECT_TRUE(listener.traceEnded);
}

TEST(Slicer, IdempotentEnd)
{
    RecordingListener listener;
    Slicer slicer(4, listener);
    slicer.onRecord(makeRecord(1));
    slicer.onEnd();
    slicer.onEnd();   // second end must be a no-op
    EXPECT_EQ(listener.ends.size(), 1u);
}
