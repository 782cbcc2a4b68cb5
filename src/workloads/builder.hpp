/**
 * @file
 * ProgramBuilder: shared scaffolding for the synthetic workload suite.
 *
 * Wraps the assembler with the idioms the workloads are made of —
 * in-program pseudo-randomness, probabilistic ("chance") branches,
 * counted loops, and input-specific data tables. A critical invariant:
 * the *code* emitted for a benchmark is identical across its inputs;
 * only data memory (tables, config words, PRNG seed) varies. This is
 * what lets the paper's cross-input H2P overlap analysis (Table I) be
 * meaningful: the same static branch IPs exist in every input.
 *
 * Register conventions:
 *   r0  constant zero            r1  in-program PRNG state
 *   r2-r4 builder temporaries    r5-r14 kernel locals
 *   r15 phase counter            r16 constant 100
 *   r17 global iteration counter
 */

#ifndef BPNSP_WORKLOADS_BUILDER_HPP
#define BPNSP_WORKLOADS_BUILDER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "vm/assembler.hpp"

namespace bpnsp {

/** Helper for writing workload programs. */
class ProgramBuilder
{
  public:
    // Register conventions (see file comment).
    static constexpr unsigned Zero = 0;
    static constexpr unsigned Prng = 1;
    static constexpr unsigned T0 = 2;
    static constexpr unsigned T1 = 3;
    static constexpr unsigned T2 = 4;
    static constexpr unsigned Hundred = 16;
    static constexpr unsigned Iter = 17;

    /**
     * @param program_name trace identifier
     * @param data_seed input-specific seed driving all data contents
     */
    ProgramBuilder(std::string program_name, uint64_t data_seed);

    /** The underlying assembler, for direct instruction emission. */
    Assembler &text() { return asm_; }

    /** Build-time RNG (input-specific) for generating data contents. */
    Rng &rng() { return dataRng; }

    /**
     * Emit the standard prologue: zero r0, load the constant 100, and
     * seed the in-program PRNG from a config word (input-specific).
     * Must be the first emission.
     */
    void prologue();

    /** Advance the in-program PRNG; the fresh value remains in r1. */
    void prngNext();

    /**
     * Emit a branch that is taken with probability pct/100, decided by
     * fresh in-program PRNG output. Because the deciding value is new
     * pseudo-random data, history-based predictors cannot do better
     * than the bias — this is the builder's systematic-H2P primitive.
     * Clobbers r1-r3.
     */
    void chance(unsigned pct, Label taken);

    /**
     * Like chance(), but the threshold is read from an input-specific
     * config word, so the branch's bias (and H2P-ness) varies across
     * workload inputs. Clobbers r1-r4.
     */
    void chanceVar(uint64_t threshold_addr, Label taken);

    /**
     * Allocate a data table of 2^log2_words 64-bit words, filled by
     * gen(rng, i). @return the base byte address.
     */
    uint64_t table(unsigned log2_words,
                   const std::function<uint64_t(Rng &, uint64_t)> &gen);

    /** Allocate one config word. @return its byte address. */
    uint64_t configWord(uint64_t value);

    /**
     * rd = table[idx & (2^log2_words - 1)], where idx is taken from
     * idx_reg. Clobbers r2-r3.
     */
    void loadTableEntry(unsigned rd, uint64_t base, unsigned log2_words,
                        unsigned idx_reg);

    /**
     * Emit a periodic gate: branch to `skip` unless the low
     * log2_period bits of gate_reg are zero, i.e. fall through once
     * every 2^log2_period values. The gate branch has a short periodic
     * pattern, so history predictors learn it — it rate-limits hard
     * sites without adding noise of its own. Clobbers r2.
     */
    void periodicGate(unsigned gate_reg, unsigned log2_period,
                      Label skip);

    /** An open counted loop (close with loopEnd). */
    struct LoopCtx
    {
        Label head;
        unsigned counter;
    };

    /** Begin `for (reg = count; reg != 0; --reg)`. */
    LoopCtx loopBegin(unsigned counter_reg, int64_t count);

    /** Begin a loop whose trip count is already in counter_reg. */
    LoopCtx loopBeginDynamic(unsigned counter_reg);

    /** Close a counted loop. */
    void loopEnd(const LoopCtx &loop);

    /** Finalize (entry is instruction 0, which jumps to entryLabel). */
    Program finish();

    /**
     * The program's real entry label. The builder emits `jmp entry` as
     * instruction 0, so function bodies may be emitted first and the
     * scaffold binds this label wherever execution should start.
     */
    Label entryLabel() const { return entryLbl; }

    /** Base address of the in-memory call stack region. */
    static constexpr uint64_t kStackBase = 0x7f000000;

    /** Spill a register to the memory stack (push). Clobbers r2-r3. */
    void push(unsigned reg);

    /** Reload a register from the memory stack (pop). Clobbers r2-r3. */
    void pop(unsigned reg);

  private:
    Assembler asm_;
    Rng dataRng;
    uint64_t dataCursor = 0x10000000;   ///< next free data address
    uint64_t seedAddr = 0;              ///< PRNG seed config word
    uint64_t spAddr = 0;                ///< stack-pointer word
    Label entryLbl;
    bool prologueDone = false;
};

/**
 * Phase-structured program scaffold (paper Sec. III-A: workloads show
 * ~9.5 SimPoint phases on average). Emits an infinite outer loop that
 * cycles through the given kernels, running each for a contiguous
 * segment of 2^log2_segment_iters invocations before moving on —
 * producing long, SimPoint-visible phases.
 *
 * Kernels are emitted as functions; each entry of `kernels` is called
 * to emit one kernel body (between the function label and ret).
 */
void emitPhaseProgram(
    ProgramBuilder &b,
    const std::vector<std::function<void(ProgramBuilder &)>> &kernels,
    unsigned log2_segment_iters);

} // namespace bpnsp

#endif // BPNSP_WORKLOADS_BUILDER_HPP
