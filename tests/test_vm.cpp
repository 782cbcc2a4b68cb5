/**
 * @file
 * Tests for the micro-ISA VM: memory, assembler, and interpreter
 * semantics (including the trace records it emits).
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "trace/sink.hpp"
#include "vm/assembler.hpp"
#include "vm/interpreter.hpp"
#include "vm/memory.hpp"

using namespace bpnsp;

// ------------------------------------------------------------ memory

TEST(Memory, DefaultZero)
{
    Memory mem;
    EXPECT_EQ(mem.read(0x1000), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(Memory, WriteRead)
{
    Memory mem;
    mem.write(0x1000, 42);
    EXPECT_EQ(mem.read(0x1000), 42u);
    EXPECT_EQ(mem.pageCount(), 1u);
}

TEST(Memory, SparsePages)
{
    Memory mem;
    mem.write(0x0, 1);
    mem.write(0x10000000, 2);
    mem.write(0x7f000000, 3);
    EXPECT_EQ(mem.pageCount(), 3u);
    EXPECT_EQ(mem.read(0x10000000), 2u);
}

TEST(Memory, WordGranularity)
{
    Memory mem;
    mem.write(0x1000, 42);
    // Any address within the same 8-byte word aliases it.
    EXPECT_EQ(mem.read(0x1007), 42u);
    EXPECT_EQ(mem.read(0x1008), 0u);
}

TEST(Memory, PageBoundary)
{
    Memory mem;
    mem.write(Memory::kPageBytes - 8, 1);
    mem.write(Memory::kPageBytes, 2);
    EXPECT_EQ(mem.pageCount(), 2u);
    EXPECT_EQ(mem.read(Memory::kPageBytes - 8), 1u);
    EXPECT_EQ(mem.read(Memory::kPageBytes), 2u);
}

// --------------------------------------------------------- assembler

TEST(Assembler, ForwardLabelResolution)
{
    Assembler a("t");
    Label target = a.newLabel();
    a.jmp(target);
    a.li(1, 7);
    a.bind(target);
    a.halt();
    Program p = a.finish();
    EXPECT_EQ(p.code[0].op, Opcode::Jump);
    EXPECT_EQ(p.code[0].imm, 2);   // resolved to the halt
}

TEST(Assembler, HereBindsImmediately)
{
    Assembler a("t");
    a.li(1, 1);
    Label here = a.here();
    a.halt();
    Program p = a.finish();
    (void)here;
    EXPECT_EQ(p.code.size(), 2u);
}

TEST(Assembler, DataSegment)
{
    Assembler a("t");
    a.data(0x2000, 99);
    a.halt();
    Program p = a.finish();
    ASSERT_EQ(p.dataInit.size(), 1u);
    EXPECT_EQ(p.dataInit[0].first, 0x2000u);
    EXPECT_EQ(p.dataInit[0].second, 99u);
}

TEST(Assembler, IpMapping)
{
    Assembler a("t");
    a.li(1, 1);
    a.halt();
    Program p = a.finish();
    EXPECT_EQ(p.ipOf(0), kCodeBase);
    EXPECT_EQ(p.ipOf(1), kCodeBase + 4);
    EXPECT_EQ(p.indexOf(kCodeBase + 4), 1u);
}

TEST(Assembler, StaticCondBranchCount)
{
    Assembler a("t");
    Label l = a.newLabel();
    a.li(1, 1);
    a.beq(1, 1, l);
    a.bind(l);
    a.bne(1, 0, l);
    a.jmp(l);   // not a conditional
    a.halt();
    EXPECT_EQ(a.finish().staticCondBranches(), 2u);
}

// ------------------------------------------------------- interpreter

// The interpreter borrows its program, so a temporary must not bind.
static_assert(!std::is_constructible_v<Interpreter, Program &&>);

namespace {

/** Run a program to halt (or budget) and return the sink. */
VectorSink
runProgram(const Program &p, uint64_t budget = 10000)
{
    Interpreter interp(p);
    VectorSink sink;
    interp.run(sink, budget);
    return sink;
}

} // namespace

TEST(Interpreter, Arithmetic)
{
    Assembler a("t");
    a.li(1, 6);
    a.li(2, 7);
    a.mul(3, 1, 2);
    a.addi(4, 3, 10);
    a.sub(5, 4, 1);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(3), 42u);
    EXPECT_EQ(interp.reg(4), 52u);
    EXPECT_EQ(interp.reg(5), 46u);
    EXPECT_TRUE(interp.halted());
}

TEST(Interpreter, DivisionByZeroYieldsZero)
{
    Assembler a("t");
    a.li(1, 10);
    a.li(2, 0);
    a.div(3, 1, 2);
    a.rem(4, 1, 2);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(3), 0u);
    EXPECT_EQ(interp.reg(4), 0u);
}

TEST(Interpreter, LoadStore)
{
    Assembler a("t");
    a.li(1, 0x2000);
    a.li(2, 77);
    a.store(2, 1, 8);    // mem[0x2008] = 77
    a.load(3, 1, 8);     // r3 = mem[0x2008]
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(3), 77u);
    EXPECT_EQ(interp.memory().read(0x2008), 77u);
}

TEST(Interpreter, DataInitLoaded)
{
    Assembler a("t");
    a.data(0x3000, 123);
    a.li(1, 0x3000);
    a.load(2, 1, 0);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(2), 123u);
}

TEST(Interpreter, BranchSemantics)
{
    Assembler a("t");
    Label skip = a.newLabel();
    a.li(1, 5);
    a.li(2, 5);
    a.beq(1, 2, skip);   // taken
    a.li(3, 111);        // skipped
    a.bind(skip);
    a.li(4, 222);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(3), 0u);
    EXPECT_EQ(interp.reg(4), 222u);
}

TEST(Interpreter, SignedComparison)
{
    Assembler a("t");
    Label neg = a.newLabel();
    a.li(1, -5);
    a.li(2, 3);
    a.blt(1, 2, neg);   // -5 < 3 signed: taken
    a.li(3, 1);
    a.bind(neg);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(3), 0u);   // skipped
}

TEST(Interpreter, CallRet)
{
    Assembler a("t");
    Label func = a.newLabel();
    Label entry = a.newLabel();
    a.jmp(entry);
    a.bind(func);
    a.addi(5, 5, 1);
    a.ret();
    a.bind(entry);
    a.call(func);
    a.call(func);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(5), 2u);
}

TEST(Interpreter, IndirectJumpThroughRegister)
{
    Assembler a("t");
    Label entry = a.newLabel();
    Label dest = a.newLabel();
    a.jmp(entry);
    a.bind(dest);
    a.addi(5, 5, 7);
    a.halt();
    a.bind(entry);
    a.lea(6, dest);
    a.jmpr(6);
    a.addi(5, 5, 100);   // skipped
    const Program p = a.finish();
    Interpreter interp(p);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(5), 7u);

    // The trace record carries the resolved target.
    bool sawInd = false;
    for (const TraceRecord &r : sink.get()) {
        if (r.cls == InstrClass::JumpInd) {
            sawInd = true;
            EXPECT_TRUE(r.taken);
            EXPECT_EQ(r.target, p.ipOf(a.labelTarget(dest)));
        }
    }
    EXPECT_TRUE(sawInd);
}

TEST(Interpreter, IndirectCallReturns)
{
    Assembler a("t");
    Label entry = a.newLabel();
    Label func = a.newLabel();
    a.jmp(entry);
    a.bind(func);
    a.addi(5, 5, 1);
    a.ret();
    a.bind(entry);
    a.lea(6, func);
    a.callr(6);
    a.callr(6);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(5), 2u);

    size_t indCalls = 0;
    for (const TraceRecord &r : sink.get())
        indCalls += r.cls == InstrClass::CallInd;
    EXPECT_EQ(indCalls, 2u);
}

TEST(Interpreter, LeaMatchesLabelTarget)
{
    Assembler a("t");
    Label entry = a.newLabel();
    Label spot = a.newLabel();
    a.jmp(entry);
    a.bind(spot);
    a.halt();
    a.bind(entry);
    a.lea(7, spot);
    a.jmpr(7);
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(7), a.labelTarget(spot));
}

TEST(Interpreter, TraceRecordsBranch)
{
    Assembler a("t");
    Label skip = a.newLabel();
    a.li(1, 1);
    a.beq(1, 1, skip);
    a.bind(skip);
    a.halt();
    const Program p = a.finish();
    VectorSink sink = runProgram(p);
    ASSERT_EQ(sink.get().size(), 3u);
    const TraceRecord &br = sink.get()[1];
    EXPECT_EQ(br.cls, InstrClass::CondBranch);
    EXPECT_TRUE(br.taken);
    EXPECT_EQ(br.ip, p.ipOf(1));
    EXPECT_EQ(br.target, p.ipOf(2));
    EXPECT_EQ(br.numSrc, 2);
}

TEST(Interpreter, TraceRecordsWrittenValue)
{
    Assembler a("t");
    a.li(1, 0x1122334455667788);
    a.halt();
    VectorSink sink = runProgram(a.finish());
    const TraceRecord &li = sink.get()[0];
    EXPECT_TRUE(li.hasDst);
    EXPECT_EQ(li.dst, 1);
    EXPECT_EQ(li.writtenValue, 0x55667788u);   // low 32 bits
}

TEST(Interpreter, TraceRecordsMemAddr)
{
    Assembler a("t");
    a.li(1, 0x4000);
    a.load(2, 1, 16);
    a.halt();
    VectorSink sink = runProgram(a.finish());
    EXPECT_EQ(sink.get()[1].memAddr, 0x4010u);
    EXPECT_EQ(sink.get()[1].cls, InstrClass::Load);
}

TEST(Interpreter, HashDeterministic)
{
    Assembler a("t");
    a.li(1, 99);
    a.hash(2, 1, 0);
    a.hash(3, 1, 0);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    VectorSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(2), interp.reg(3));
    EXPECT_NE(interp.reg(2), 99u);
}

TEST(Interpreter, BudgetStopsExecution)
{
    Assembler a("t");
    Label head = a.here();
    a.addi(1, 1, 1);
    a.jmp(head);
    const Program prog = a.finish();
    Interpreter interp(prog);
    CountingSink sink;
    const uint64_t executed = interp.run(sink, 1000);
    EXPECT_EQ(executed, 1000u);
    EXPECT_FALSE(interp.halted());
    // Resumable: running again continues.
    EXPECT_EQ(interp.run(sink, 500), 500u);
    EXPECT_EQ(sink.totalCount(), 1500u);
}

TEST(Interpreter, RestartOnHalt)
{
    Assembler a("t");
    a.addi(1, 1, 1);
    a.halt();
    const Program prog = a.finish();
    Interpreter interp(prog);
    interp.setRestartOnHalt(true);
    CountingSink sink;
    interp.run(sink, 10);
    EXPECT_FALSE(interp.halted());
    EXPECT_EQ(interp.invocations(), 5u);
    EXPECT_EQ(interp.reg(1), 5u);   // state persists across restarts
}

TEST(Interpreter, DeterministicReplay)
{
    // Two interpreters over the same program produce identical traces.
    Assembler a("t");
    a.li(1, 3);
    Label head = a.here();
    a.hash(2, 2, 1);
    a.addi(1, 1, -1);
    a.bne(1, 0, head);
    a.halt();
    const Program p = a.finish();
    VectorSink s1 = runProgram(p);
    VectorSink s2 = runProgram(p);
    ASSERT_EQ(s1.get().size(), s2.get().size());
    for (size_t i = 0; i < s1.get().size(); ++i) {
        EXPECT_EQ(s1.get()[i].ip, s2.get()[i].ip);
        EXPECT_EQ(s1.get()[i].taken, s2.get()[i].taken);
        EXPECT_EQ(s1.get()[i].writtenValue, s2.get()[i].writtenValue);
    }
}
