/**
 * @file
 * The bpnsp micro-ISA.
 *
 * A small register machine used to *execute* the synthetic workloads so
 * that traces carry genuine dataflow: every branch condition is computed
 * from register/memory reads, which is what the paper's dependency-branch
 * analysis (Sec. IV-A) and register-value profiling (Fig. 10) require.
 *
 * The machine has 18 general-purpose registers, matching the "18 tracked
 * registers" of the paper's Fig. 10. Instructions are fixed 4 bytes for
 * IP arithmetic; control flow targets are instruction indices resolved by
 * the assembler.
 */

#ifndef BPNSP_VM_ISA_HPP
#define BPNSP_VM_ISA_HPP

#include <cstdint>

namespace bpnsp {

/** Number of architectural general-purpose registers. */
constexpr unsigned kNumRegs = 18;

/** Byte size of every encoded instruction. */
constexpr uint64_t kInstrBytes = 4;

/** Default base address of the code segment. */
constexpr uint64_t kCodeBase = 0x400000;

/** Micro-ISA opcodes. */
enum class Opcode : uint8_t {
    // ALU register-register: rd = ra <op> rb
    Add, Sub, Mul, Div, Rem, And, Or, Xor,
    // rd = mix64(ra ^ rb): cheap in-program hashing, used to model
    // data-dependent (hard-to-predict) conditions.
    Hash,
    // ALU register-immediate: rd = ra <op> imm
    AddI, MulI, AndI, XorI, ShlI, ShrI,
    // rd = imm
    LoadImm,
    // rd = ra
    Move,
    // rd = mem[ra + imm]
    Load,
    // mem[rb + imm] = ra
    Store,
    // conditional branches on two registers, target = imm (instr index)
    Beq, Bne, Blt, Bge,
    // unconditional control flow, target = imm (instr index)
    Jump, Call,
    // return to the call site (+1)
    Ret,
    // stop execution
    Halt,
    // register-indirect control flow, target = instruction index in ra
    // (appended after Halt so existing encodings are unchanged)
    JumpInd, CallInd,
};

/** True for Beq/Bne/Blt/Bge. */
inline bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        return true;
      default:
        return false;
    }
}

/** True for JumpInd/CallInd (target read from a register). */
inline bool
isIndirectOp(Opcode op)
{
    return op == Opcode::JumpInd || op == Opcode::CallInd;
}

/** True for any opcode that may redirect the instruction stream. */
inline bool
isControlOp(Opcode op)
{
    return isCondBranch(op) || op == Opcode::Jump || op == Opcode::Call ||
           op == Opcode::Ret || isIndirectOp(op);
}

/** One decoded instruction. */
struct Instr
{
    Opcode op = Opcode::Halt;
    uint8_t rd = 0;   ///< destination register
    uint8_t ra = 0;   ///< first source register
    uint8_t rb = 0;   ///< second source register
    int64_t imm = 0;  ///< immediate / branch target (instruction index)
};

} // namespace bpnsp

#endif // BPNSP_VM_ISA_HPP
