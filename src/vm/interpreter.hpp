/**
 * @file
 * Micro-ISA interpreter: executes a Program and streams retired
 * instructions to a TraceSink. This is the repository's stand-in for
 * the binary instrumentation used to collect the paper's traces.
 */

#ifndef BPNSP_VM_INTERPRETER_HPP
#define BPNSP_VM_INTERPRETER_HPP

#include <cstdint>
#include <vector>

#include "trace/sink.hpp"
#include "vm/memory.hpp"
#include "vm/program.hpp"

namespace bpnsp {

/** Executes a Program instruction-by-instruction. */
class Interpreter
{
  public:
    /**
     * Borrow the program, which must outlive the interpreter, and load
     * its initial data image. Temporaries are rejected at compile time.
     */
    explicit Interpreter(const Program &program);
    Interpreter(Program &&) = delete;

    /**
     * Execute up to max_instrs instructions, streaming each retired
     * instruction into sink (onEnd is NOT called; the caller owns
     * stream termination so multiple runs can share one sink).
     *
     * Stops early at Halt, unless restart-on-halt is enabled, in which
     * case execution resumes at the entry point with memory and
     * registers preserved (modelling repeated invocations that the
     * paper's "multiple executions" methodology relies on).
     *
     * @return the number of instructions retired by this call.
     */
    uint64_t run(TraceSink &sink, uint64_t max_instrs);

    /** Keep running past Halt by re-entering at the program entry. */
    void setRestartOnHalt(bool enable) { restartOnHalt = enable; }

    /** True once Halt retired (and restart-on-halt is off). */
    bool halted() const { return isHalted; }

    /** Architectural register file (for tests and setup). */
    uint64_t reg(unsigned r) const;
    void setReg(unsigned r, uint64_t value);

    /** Data memory (for tests and setup). */
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }

    /** Times Halt has retired (invocation count under restart). */
    uint64_t invocations() const { return haltCount; }

    /** Current program counter (instruction index). */
    uint64_t pc() const { return pcIndex; }

  private:
    const Program &prog;
    Memory mem;
    uint64_t regs[kNumRegs] = {};
    uint64_t pcIndex;
    std::vector<uint64_t> callStack;
    bool isHalted = false;
    bool restartOnHalt = false;
    uint64_t haltCount = 0;

    static constexpr size_t kMaxCallDepth = 1 << 20;
};

} // namespace bpnsp

#endif // BPNSP_VM_INTERPRETER_HPP
