/**
 * @file
 * Tests for the trace module: records and sinks.
 */

#include <gtest/gtest.h>

#include "trace/record.hpp"
#include "trace/sink.hpp"

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
