#include "vm/interpreter.hpp"

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace bpnsp {

Interpreter::Interpreter(const Program &program)
    : prog(program), pcIndex(prog.entry)
{
    BPNSP_ASSERT(!prog.code.empty(), "interpreting an empty program");
    BPNSP_ASSERT(prog.entry < prog.code.size(), "entry out of range");
    for (const auto &[addr, value] : prog.dataInit)
        mem.write(addr, value);
}

uint64_t
Interpreter::reg(unsigned r) const
{
    BPNSP_ASSERT(r < kNumRegs);
    return regs[r];
}

void
Interpreter::setReg(unsigned r, uint64_t value)
{
    BPNSP_ASSERT(r < kNumRegs);
    regs[r] = value;
}

uint64_t
Interpreter::run(TraceSink &sink, uint64_t max_instrs)
{
    if (isHalted)
        return 0;

    uint64_t retired = 0;
    while (retired < max_instrs) {
        BPNSP_ASSERT(pcIndex < prog.code.size(),
                     "pc escaped the code segment in ", prog.name);
        const Instr &instr = prog.code[pcIndex];

        TraceRecord rec;
        rec.ip = prog.ipOf(pcIndex);
        rec.fallthrough = prog.ipOf(pcIndex + 1);

        uint64_t next_pc = pcIndex + 1;
        const uint64_t a = regs[instr.ra];
        const uint64_t b = regs[instr.rb];

        auto writeDst = [&](uint64_t value, InstrClass cls) {
            regs[instr.rd] = value;
            rec.cls = cls;
            rec.hasDst = true;
            rec.dst = instr.rd;
            rec.writtenValue = static_cast<uint32_t>(value);
        };
        auto srcAB = [&]() {
            rec.numSrc = 2;
            rec.src[0] = instr.ra;
            rec.src[1] = instr.rb;
        };
        auto srcA = [&]() {
            rec.numSrc = 1;
            rec.src[0] = instr.ra;
        };
        auto branch = [&](bool taken) {
            rec.cls = InstrClass::CondBranch;
            srcAB();
            rec.taken = taken;
            rec.target = prog.ipOf(static_cast<uint64_t>(instr.imm));
            if (taken)
                next_pc = static_cast<uint64_t>(instr.imm);
        };

        switch (instr.op) {
          case Opcode::Add:
            srcAB();
            writeDst(a + b, InstrClass::Alu);
            break;
          case Opcode::Sub:
            srcAB();
            writeDst(a - b, InstrClass::Alu);
            break;
          case Opcode::Mul:
            srcAB();
            writeDst(a * b, InstrClass::Mul);
            break;
          case Opcode::Div:
            srcAB();
            writeDst(b ? a / b : 0, InstrClass::Div);
            break;
          case Opcode::Rem:
            srcAB();
            writeDst(b ? a % b : 0, InstrClass::Div);
            break;
          case Opcode::And:
            srcAB();
            writeDst(a & b, InstrClass::Alu);
            break;
          case Opcode::Or:
            srcAB();
            writeDst(a | b, InstrClass::Alu);
            break;
          case Opcode::Xor:
            srcAB();
            writeDst(a ^ b, InstrClass::Alu);
            break;
          case Opcode::Hash:
            srcAB();
            writeDst(mix64(a ^ b), InstrClass::Alu);
            break;
          case Opcode::AddI:
            srcA();
            writeDst(a + static_cast<uint64_t>(instr.imm),
                     InstrClass::Alu);
            break;
          case Opcode::MulI:
            srcA();
            writeDst(a * static_cast<uint64_t>(instr.imm),
                     InstrClass::Mul);
            break;
          case Opcode::AndI:
            srcA();
            writeDst(a & static_cast<uint64_t>(instr.imm),
                     InstrClass::Alu);
            break;
          case Opcode::XorI:
            srcA();
            writeDst(a ^ static_cast<uint64_t>(instr.imm),
                     InstrClass::Alu);
            break;
          case Opcode::ShlI:
            srcA();
            writeDst(a << instr.imm, InstrClass::Alu);
            break;
          case Opcode::ShrI:
            srcA();
            writeDst(a >> instr.imm, InstrClass::Alu);
            break;
          case Opcode::LoadImm:
            writeDst(static_cast<uint64_t>(instr.imm), InstrClass::Alu);
            break;
          case Opcode::Move:
            srcA();
            writeDst(a, InstrClass::Alu);
            break;
          case Opcode::Load: {
            srcA();
            const uint64_t addr = a + static_cast<uint64_t>(instr.imm);
            rec.memAddr = addr;
            writeDst(mem.read(addr), InstrClass::Load);
            break;
          }
          case Opcode::Store: {
            srcAB();
            const uint64_t addr = b + static_cast<uint64_t>(instr.imm);
            rec.memAddr = addr;
            rec.cls = InstrClass::Store;
            mem.write(addr, a);
            break;
          }
          case Opcode::Beq:
            branch(a == b);
            break;
          case Opcode::Bne:
            branch(a != b);
            break;
          case Opcode::Blt:
            branch(static_cast<int64_t>(a) < static_cast<int64_t>(b));
            break;
          case Opcode::Bge:
            branch(static_cast<int64_t>(a) >= static_cast<int64_t>(b));
            break;
          case Opcode::Jump:
            rec.cls = InstrClass::Jump;
            rec.taken = true;
            next_pc = static_cast<uint64_t>(instr.imm);
            rec.target = prog.ipOf(next_pc);
            break;
          case Opcode::Call:
            rec.cls = InstrClass::Call;
            rec.taken = true;
            BPNSP_ASSERT(callStack.size() < kMaxCallDepth,
                         "call stack overflow in ", prog.name);
            callStack.push_back(pcIndex + 1);
            next_pc = static_cast<uint64_t>(instr.imm);
            rec.target = prog.ipOf(next_pc);
            break;
          case Opcode::Ret:
            rec.cls = InstrClass::Ret;
            rec.taken = true;
            if (callStack.empty())
                fatal("return with empty call stack in ", prog.name);
            next_pc = callStack.back();
            callStack.pop_back();
            rec.target = prog.ipOf(next_pc);
            break;
          case Opcode::JumpInd:
            rec.cls = InstrClass::JumpInd;
            rec.taken = true;
            srcA();
            next_pc = a;
            BPNSP_ASSERT(next_pc < prog.code.size(),
                         "indirect jump escaped the code segment in ",
                         prog.name);
            rec.target = prog.ipOf(next_pc);
            break;
          case Opcode::CallInd:
            rec.cls = InstrClass::CallInd;
            rec.taken = true;
            srcA();
            BPNSP_ASSERT(callStack.size() < kMaxCallDepth,
                         "call stack overflow in ", prog.name);
            callStack.push_back(pcIndex + 1);
            next_pc = a;
            BPNSP_ASSERT(next_pc < prog.code.size(),
                         "indirect call escaped the code segment in ",
                         prog.name);
            rec.target = prog.ipOf(next_pc);
            break;
          case Opcode::Halt:
            rec.cls = InstrClass::Halt;
            ++haltCount;
            if (restartOnHalt) {
                rec.taken = true;
                next_pc = prog.entry;
                rec.target = prog.ipOf(next_pc);
                rec.cls = InstrClass::Jump;   // appears as a back edge
                callStack.clear();
            } else {
                isHalted = true;
            }
            break;
        }

        sink.onRecord(rec);
        ++retired;
        pcIndex = next_pc;
        if (isHalted)
            break;
    }
    return retired;
}

} // namespace bpnsp
