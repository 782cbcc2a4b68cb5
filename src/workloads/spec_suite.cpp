#include "workloads/spec_suite.hpp"

#include <functional>
#include <memory>

#include "util/bitops.hpp"
#include "workloads/builder.hpp"
#include "workloads/dispatch.hpp"

namespace bpnsp {
namespace {

using B = ProgramBuilder;
using KernelFn = std::function<void(ProgramBuilder &)>;

/** Uniform value in [0, 100) — the common branch-data generator. */
uint64_t
pct(Rng &r, uint64_t)
{
    return r.below(100);
}

/** Raw 64-bit random data. */
uint64_t
raw(Rng &r, uint64_t)
{
    return r.next();
}

/**
 * Generator producing values in runs (value persists for a stretch of
 * consecutive entries). Models the temporal locality of real opcode /
 * event-type streams, which makes dispatch chains learnable.
 */
std::function<uint64_t(Rng &, uint64_t)>
runsOf(std::function<uint64_t(Rng &)> pick, unsigned min_run,
       unsigned max_run)
{
    auto current = std::make_shared<uint64_t>(0);
    auto left = std::make_shared<unsigned>(0);
    return [=](Rng &r, uint64_t) {
        if (*left == 0) {
            *current = pick(r);
            *left = min_run +
                    static_cast<unsigned>(r.below(max_run - min_run + 1));
        }
        --*left;
        return *current;
    };
}

/**
 * Emit a data-driven 50/50 branch: load a fresh random word via the
 * in-program PRNG index into `base`, test its low bit. The canonical
 * systematic H2P: abundant history, no predictive signal in it.
 */
void
emitCoinBranch(ProgramBuilder &b, uint64_t base, unsigned log2_words)
{
    Assembler &a = b.text();
    b.prngNext();
    b.loadTableEntry(8, base, log2_words, B::Prng);
    a.andi(9, 8, 1);
    const Label skip = a.newLabel();
    a.beq(9, B::Zero, skip);
    a.add(10, 10, 8);
    a.bind(skip);
}

/**
 * Emit a correlated threshold chain: one loaded value v is tested by
 * several branches at different program points with interleaved
 * variable-length noise loops. Earlier tests are *dependency branches*
 * of the final one (they read the same register) — the structure the
 * paper's Sec. IV-A operand-graph analysis discovers. The final branch
 * is only partially determined by the earlier outcomes (its threshold
 * lies strictly between theirs), and the noise loops scramble the
 * history positions at which the dependency branches appear (Fig. 6).
 */
void
emitCorrelatedChain(ProgramBuilder &b, uint64_t base,
                    unsigned log2_words, unsigned t_low,
                    unsigned t_mid, unsigned t_high)
{
    Assembler &a = b.text();
    b.prngNext();
    b.loadTableEntry(7, base, log2_words, B::Prng);
    a.rem(7, 7, B::Hundred);   // v in [0, 100)

    // Dependency branch 1: v < t_low.
    Label l1 = a.newLabel();
    a.li(9, static_cast<int64_t>(t_low));
    a.blt(7, 9, l1);
    a.addi(10, 10, 1);
    a.bind(l1);

    // Noise: a loop whose trip count varies with v (1..4 iters).
    a.andi(11, 7, 3);
    a.addi(11, 11, 1);
    auto noise = b.loopBeginDynamic(11);
    a.add(10, 10, 11);
    b.loopEnd(noise);

    // Dependency branch 2: v < t_high.
    Label l2 = a.newLabel();
    a.li(9, static_cast<int64_t>(t_high));
    a.blt(7, 9, l2);
    a.addi(10, 10, 2);
    a.bind(l2);

    // More variable-distance noise.
    a.andi(11, 7, 7);
    a.addi(11, 11, 1);
    auto noise2 = b.loopBeginDynamic(11);
    a.xori(10, 10, 5);
    b.loopEnd(noise2);

    // The H2P: v < t_mid, undetermined when t_low <= v < t_high.
    Label l3 = a.newLabel();
    a.li(9, static_cast<int64_t>(t_mid));
    a.blt(7, 9, l3);
    a.addi(10, 10, 4);
    a.bind(l3);
}

/**
 * A counted loop of register work: predictable branches + ALU. The
 * body's dependency chains restart from the loop counter each
 * iteration, so iterations overlap in an out-of-order core (real
 * filler code has ILP; a serial chain here would make every workload
 * dependency-bound and flatten the paper's pipeline-scaling curves).
 */
void
emitFiller(ProgramBuilder &b, unsigned trip)
{
    Assembler &a = b.text();
    auto loop = b.loopBegin(12, trip);
    a.add(10, 12, 12);       // restart the r10 chain from the counter
    a.muli(4, 12, 3);        // independent multiply
    a.xori(10, 10, 0x11);
    a.add(4, 4, 12);
    a.shri(10, 10, 1);
    b.loopEnd(loop);
}

/**
 * Rarely-taken gate into a cold-code dispatcher: once every
 * 2^log2_period phase iterations the kernel calls one library
 * function, selected by fresh PRNG bits. Gives SPEC-like programs
 * their static-branch tail without dominating dynamic behavior.
 */
KernelFn
coldCodeKernel(const std::vector<Label> &funcs, unsigned log2_period)
{
    return [funcs, log2_period](ProgramBuilder &b) {
        Assembler &a = b.text();
        emitFiller(b, 24);
        const Label skip = a.newLabel();
        const Label done = a.newLabel();
        b.periodicGate(B::Iter, log2_period, skip);
        b.prngNext();
        a.andi(7, B::Prng, static_cast<int64_t>(funcs.size() - 1));
        emitDispatchTree(a, 7, funcs, done);
        a.bind(done);
        a.bind(skip);
    };
}

// ------------------------------------------------------------------
// 600.perlbench_s-like: interpreter dispatch over a run-structured
// opcode stream; string scans; hash probes. Target: accuracy ~0.99
// with one consistent H2P (the hash-collision test).
// ------------------------------------------------------------------
Program
doBuildPerlbench(uint64_t seed)
{
    ProgramBuilder b("perlbench_like", seed);

    // Opcode stream in runs of 6..20: real interpreters revisit the
    // same ops in bursts, so the dispatch chain is history-learnable.
    const uint64_t ops = b.table(
        12, runsOf(
                [](Rng &r) {
                    const uint64_t u = r.below(100);
                    if (u < 45) return uint64_t{0};
                    if (u < 70) return uint64_t{1};
                    if (u < 85) return uint64_t{2};
                    if (u < 93) return uint64_t{3};
                    return 4 + r.below(4);
                },
                6, 20));
    const uint64_t lens = b.table(8, runsOf(
        [](Rng &r) { return 8 + r.below(24); }, 4, 12));
    const uint64_t htab = b.table(10, pct);

    FuncLibraryParams lib;
    lib.numFuncs = 256;
    lib.minBranches = 4;
    lib.maxBranches = 9;
    lib.biasChoices = {2, 4, 8, 90, 95, 97};
    lib.structSeed = 0x9e71;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0/k1: opcode dispatch loop (two variants = two phases). The
    // stream index advances sequentially so runs are visible.
    for (unsigned variant = 0; variant < 2; ++variant) {
        kernels.push_back([=](ProgramBuilder &bb) {
            Assembler &aa = bb.text();
            auto loop = bb.loopBegin(13, 48 + 16 * variant);
            aa.addi(15, 15, 1);   // stream cursor
            bb.loadTableEntry(7, ops, 12, 15);
            const Label next = aa.newLabel();
            for (unsigned op = 0; op < 7; ++op) {
                const Label miss = aa.newLabel();
                aa.li(8, static_cast<int64_t>(op));
                aa.bne(7, 8, miss);
                aa.addi(10, 10, static_cast<int64_t>(op + 1));
                aa.jmp(next);
                aa.bind(miss);
            }
            aa.bind(next);
            emitFiller(bb, 3);
            bb.loopEnd(loop);
        });
    }
    // k2: string scan with run-structured lengths (loop friendly).
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto outer = bb.loopBegin(13, 8);
        aa.addi(15, 15, 1);
        bb.loadTableEntry(11, lens, 8, 15);
        auto scan = bb.loopBeginDynamic(11);
        aa.add(10, 10, 11);
        bb.loopEnd(scan);
        bb.loopEnd(outer);
    });
    // k3: hash-table probe; the collision path is the benchmark's H2P,
    // rate-limited to keep the suite-level accuracy near 0.99.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 32);
        emitFiller(bb, 4);
        const Label skip = aa.newLabel();
        bb.periodicGate(13, 3, skip);   // every 8th probe collides-ish
        bb.prngNext();
        bb.loadTableEntry(7, htab, 10, B::Prng);
        const Label hit = aa.newLabel();
        aa.li(8, 42);
        aa.blt(7, 8, hit);   // ~42% taken: the systematic H2P
        aa.addi(10, 10, 3);
        aa.bind(hit);
        aa.bind(skip);
        bb.loopEnd(loop);
    });
    kernels.push_back(coldCodeKernel(cold, 2));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

// ------------------------------------------------------------------
// 605.mcf_s-like: network-simplex pricing — pointer chasing with
// sign tests on random costs. Few static branches; mispredictions
// concentrated almost entirely (paper: 96.9%) in a handful of H2Ps.
// ------------------------------------------------------------------
Program
doBuildMcf(uint64_t seed)
{
    ProgramBuilder b("mcf_like", seed);

    const uint64_t next_tab = b.table(12, [](Rng &r, uint64_t) {
        return r.below(1ull << 12);
    });
    const uint64_t cost_tab = b.table(12, raw);
    const uint64_t arc_tab = b.table(14, pct);

    FuncLibraryParams lib;
    lib.numFuncs = 128;
    lib.minBranches = 2;
    lib.maxBranches = 6;
    lib.biasChoices = {3, 6, 92, 96};
    lib.structSeed = 0x3cf0;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0: pointer chase; one 50/50 H2P per hop, diluted with node
    // bookkeeping (predictable inner work).
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        bb.prngNext();
        aa.mov(7, B::Prng);
        auto loop = bb.loopBegin(13, 48);
        bb.loadTableEntry(8, next_tab, 12, 7);
        bb.loadTableEntry(9, cost_tab, 12, 7);
        aa.andi(11, 9, 1);
        const Label skip = aa.newLabel();
        aa.beq(11, B::Zero, skip);   // H2P heavy hitter: 50/50
        aa.add(10, 10, 9);
        aa.bind(skip);
        aa.mov(7, 8);
        emitFiller(bb, 4);
        bb.loopEnd(loop);
    });
    // k1: arc pricing sweep: mostly-predictable feasibility test plus
    // a rate-limited reduced-cost sign H2P.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 96);
        bb.prngNext();
        bb.loadTableEntry(8, arc_tab, 14, B::Prng);
        const Label feas = aa.newLabel();
        aa.li(9, 92);
        aa.bge(8, 9, feas);   // 8% taken: easy feasibility check
        aa.add(10, 10, 8);
        aa.bind(feas);
        const Label skip = aa.newLabel();
        bb.periodicGate(13, 2, skip);   // every 4th arc
        emitCoinBranch(bb, cost_tab, 12);   // H2P: reduced-cost sign
        aa.bind(skip);
        bb.loopEnd(loop);
    });
    // k2: correlated chain (dependency-branch structure for Fig. 6).
    kernels.push_back([=](ProgramBuilder &bb) {
        auto loop = bb.loopBegin(14, 24);
        emitCorrelatedChain(bb, cost_tab, 12, 30, 50, 70);
        emitFiller(bb, 6);
        bb.loopEnd(loop);
    });
    // k3: predictable augmentation loop + rare cold code.
    kernels.push_back([=](ProgramBuilder &bb) {
        emitFiller(bb, 160);
    });
    kernels.push_back(coldCodeKernel(cold, 6));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

// ------------------------------------------------------------------
// 620.omnetpp_s-like: discrete event simulation — heap maintenance
// with mostly-ordered timestamp comparisons, skewed event dispatch,
// a few genuine H2P comparisons.
// ------------------------------------------------------------------
Program
doBuildOmnetpp(uint64_t seed)
{
    ProgramBuilder b("omnetpp_like", seed);

    const uint64_t tstamps = b.table(11, raw);
    const uint64_t types = b.table(
        10, runsOf(
                [](Rng &r) {
                    const uint64_t u = r.below(100);
                    if (u < 55) return uint64_t{0};
                    if (u < 80) return uint64_t{1};
                    if (u < 90) return uint64_t{2};
                    return 3 + r.below(5);
                },
                4, 16));

    FuncLibraryParams lib;
    lib.numFuncs = 384;
    lib.biasChoices = {2, 5, 10, 88, 94, 97};
    lib.structSeed = 0x02e7;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0: heap sift-down — comparisons against a running maximum are
    // mostly predictable (heaps are mostly ordered); one genuine H2P
    // comparison per sift.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto outer = bb.loopBegin(13, 12);
        aa.li(7, 0);   // running max
        auto depth = bb.loopBegin(14, 7);
        bb.prngNext();
        bb.loadTableEntry(8, tstamps, 11, B::Prng);
        aa.shri(8, 8, 32);
        const Label keep = aa.newLabel();
        aa.blt(8, 7, keep);     // mostly taken once max grows: easy
        aa.mov(7, 8);
        aa.bind(keep);
        emitFiller(bb, 2);
        bb.loopEnd(depth);
        const Label no_sib = aa.newLabel();
        bb.periodicGate(13, 1, no_sib);   // every other sift
        emitCoinBranch(bb, tstamps, 11);   // H2P: sibling comparison
        aa.bind(no_sib);
        bb.loopEnd(outer);
    });
    // k1: event-type dispatch (runs => mostly predictable).
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 40);
        aa.addi(15, 15, 1);
        bb.loadTableEntry(7, types, 10, 15);
        const Label next = aa.newLabel();
        for (unsigned ty = 0; ty < 7; ++ty) {
            const Label miss = aa.newLabel();
            aa.li(8, static_cast<int64_t>(ty));
            aa.bne(7, 8, miss);
            aa.addi(10, 10, static_cast<int64_t>(ty));
            aa.jmp(next);
            aa.bind(miss);
        }
        aa.bind(next);
        emitFiller(bb, 3);
        bb.loopEnd(loop);
    });
    // k2: timer wheel scan; rate-limited cancellation H2P.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 64);
        emitFiller(bb, 3);
        const Label skip = aa.newLabel();
        bb.periodicGate(13, 3, skip);
        const Label keep = aa.newLabel();
        bb.chance(40, keep);   // H2P: cancel decision
        aa.add(10, 10, 13);
        aa.bind(keep);
        aa.bind(skip);
        bb.loopEnd(loop);
    });
    // k3: correlated chain + cold code.
    kernels.push_back([=](ProgramBuilder &bb) {
        auto loop = bb.loopBegin(14, 10);
        emitCorrelatedChain(bb, tstamps, 11, 20, 45, 75);
        emitFiller(bb, 8);
        bb.loopEnd(loop);
    });
    kernels.push_back(coldCodeKernel(cold, 2));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

// ------------------------------------------------------------------
// 623.xalancbmk_s-like: XML tree traversal — very highly biased
// branches (accuracy ~0.997); H2Ps only on rare, gated paths.
// ------------------------------------------------------------------
Program
doBuildXalancbmk(uint64_t seed)
{
    ProgramBuilder b("xalancbmk_like", seed);

    const uint64_t nodes = b.table(12, pct);

    FuncLibraryParams lib;
    lib.numFuncs = 512;
    lib.minBranches = 4;
    lib.maxBranches = 12;
    lib.biasChoices = {2, 4, 6, 90, 94, 97};   // mostly easy branches
    lib.structSeed = 0xa1a0;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0: element walk — 95%-biased "is element" checks.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 96);
        bb.prngNext();
        bb.loadTableEntry(7, nodes, 12, B::Prng);
        const Label text_node = aa.newLabel();
        aa.li(8, 95);
        aa.bge(7, 8, text_node);   // 5% taken
        aa.addi(10, 10, 1);
        aa.bind(text_node);
        emitFiller(bb, 2);
        bb.loopEnd(loop);
    });
    // k1: attribute scan, counted inner loops.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto outer = bb.loopBegin(13, 16);
        auto inner = bb.loopBegin(14, 6);
        aa.add(10, 10, 14);
        bb.loopEnd(inner);
        bb.loopEnd(outer);
    });
    // k2: namespace resolution — H2P sites behind a 1-in-32 path.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 48);
        emitFiller(bb, 3);
        const Label skip = aa.newLabel();
        bb.periodicGate(13, 5, skip);
        emitCoinBranch(bb, nodes, 12);   // H2P on the rare path
        emitCoinBranch(bb, nodes, 12);
        aa.bind(skip);
        bb.loopEnd(loop);
    });
    kernels.push_back(coldCodeKernel(cold, 2));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

// ------------------------------------------------------------------
// 625.x264_s-like: motion estimation — deep regular loop nests (SAD)
// with one dominant mode-decision H2P (paper: 1 H2P per slice causing
// 54.2% of mispredictions).
// ------------------------------------------------------------------
Program
doBuildX264(uint64_t seed)
{
    ProgramBuilder b("x264_like", seed);

    const uint64_t frame = b.table(14, raw);
    const uint64_t thr = b.configWord(30 + b.rng().below(21));

    FuncLibraryParams lib;
    lib.numFuncs = 256;
    lib.biasChoices = {3, 6, 10, 90, 94, 97};
    lib.structSeed = 0x2640;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0: 16x16 SAD with a rare data-driven early exit.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        const Label abort = bb.text().newLabel();
        auto rows = bb.loopBegin(13, 16);
        auto cols = bb.loopBegin(14, 16);
        bb.prngNext();
        bb.loadTableEntry(7, frame, 14, B::Prng);
        aa.andi(7, 7, 0xff);
        aa.add(10, 10, 7);
        bb.loopEnd(cols);
        aa.andi(9, 10, 0x3fff);
        aa.li(8, 0x3f00);
        aa.bge(9, 8, abort);   // ~1.6% taken early exit
        bb.loopEnd(rows);
        aa.bind(abort);
        aa.li(10, 0);
    });
    // k1: mode decision — the single dominant H2P (chanceVar makes
    // its bias input-specific: ~20..45% taken).
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 128);
        const Label inter = aa.newLabel();
        bb.chanceVar(thr, inter);    // the heavy hitter
        aa.addi(10, 10, 2);
        aa.bind(inter);
        emitFiller(bb, 2);
        bb.loopEnd(loop);
    });
    // k2: sub-pel refinement, fully regular.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto outer = bb.loopBegin(13, 9);
        auto inner = bb.loopBegin(14, 9);
        bb.prngNext();
        bb.loadTableEntry(7, frame, 14, B::Prng);
        aa.add(10, 10, 7);
        bb.loopEnd(inner);
        bb.loopEnd(outer);
    });
    // k3: entropy coding filler.
    kernels.push_back([=](ProgramBuilder &bb) {
        emitFiller(bb, 180);
    });
    kernels.push_back(coldCodeKernel(cold, 5));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

// ------------------------------------------------------------------
// 631.deepsjeng_s-like: alpha-beta game tree — recursion with
// pruning decisions on hashed position values.
// ------------------------------------------------------------------
Program
doBuildDeepsjeng(uint64_t seed)
{
    ProgramBuilder b("deepsjeng_like", seed);
    Assembler &a = b.text();

    const uint64_t eval_tab = b.table(12, raw);

    FuncLibraryParams lib;
    lib.numFuncs = 320;
    lib.biasChoices = {3, 6, 10, 88, 93, 96};
    lib.structSeed = 0xdee9;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    // Recursive search function: search(depth in r7). Loop counter
    // and depth are spilled to the in-memory stack around the call.
    const Label search = a.newLabel();
    {
        a.bind(search);
        const Label leaf = a.newLabel();
        const Label out = a.newLabel();
        a.beq(7, B::Zero, leaf);
        a.mov(14, 7);   // depth
        auto moves = b.loopBegin(13, 4);
        emitFiller(b, 6);   // move make/unmake bookkeeping
        b.prngNext();
        b.loadTableEntry(8, eval_tab, 12, B::Prng);
        a.rem(8, 8, B::Hundred);
        const Label pruned = a.newLabel();
        a.li(9, 70);
        a.bge(8, 9, pruned);       // H2P-ish: prune decision (30/70)
        b.push(13);
        b.push(14);
        a.addi(7, 14, -1);
        a.call(search);
        b.pop(14);
        b.pop(13);
        a.bind(pruned);
        b.loopEnd(moves);
        a.jmp(out);
        // Leaf: static eval — one hard comparison plus regular work.
        a.bind(leaf);
        emitFiller(b, 8);
        const Label neg = a.newLabel();
        b.prngNext();
        b.loadTableEntry(8, eval_tab, 12, B::Prng);
        a.rem(8, 8, B::Hundred);
        a.li(9, 45);
        a.blt(8, 9, neg);          // H2P: eval sign (45/55)
        a.addi(10, 10, 1);
        a.bind(neg);
        a.bind(out);
        a.ret();
    }

    std::vector<KernelFn> kernels;
    // k0: fixed-depth search.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        aa.li(7, 3);
        aa.call(search);
    });
    // k1: move generation — regular loops + easy legality check.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 64);
        emitFiller(bb, 2);
        const Label illegal = aa.newLabel();
        bb.chance(6, illegal);   // 6% illegal: easy
        aa.addi(10, 10, 1);
        aa.bind(illegal);
        bb.loopEnd(loop);
    });
    // k2: correlated chain.
    kernels.push_back([=](ProgramBuilder &bb) {
        auto loop = bb.loopBegin(14, 16);
        emitCorrelatedChain(bb, eval_tab, 12, 25, 50, 75);
        emitFiller(bb, 6);
        bb.loopEnd(loop);
    });
    kernels.push_back(coldCodeKernel(cold, 2));

    emitPhaseProgram(b, kernels, 9);
    return b.finish();
}

// ------------------------------------------------------------------
// 641.leela_s-like: MCTS playouts — dozens of distinct stochastic
// decision sites (lowest accuracy in Table I: 0.880; 34 H2Ps/slice).
// ------------------------------------------------------------------
Program
doBuildLeela(uint64_t seed)
{
    ProgramBuilder b("leela_like", seed);

    const uint64_t board = b.table(12, raw);

    FuncLibraryParams lib;
    lib.numFuncs = 256;
    lib.biasChoices = {4, 8, 40, 60, 90, 95};
    lib.structSeed = 0x1ee1;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0/k1: playout kernels — unrolled chains of biased stochastic
    // decisions, each at its own static IP (many distinct H2Ps),
    // diluted with board-update work.
    for (unsigned variant = 0; variant < 2; ++variant) {
        kernels.push_back([=](ProgramBuilder &bb) {
            Assembler &aa = bb.text();
            auto loop = bb.loopBegin(13, 6);
            for (unsigned site = 0; site < 10; ++site) {
                const unsigned bias = 40 + ((site * 7 + variant * 3) % 21);
                const Label skip = aa.newLabel();
                bb.chance(bias, skip);   // H2P site
                aa.addi(10, 10, 1);
                aa.bind(skip);
                if (site % 3 == 2)
                    emitFiller(bb, 7);
            }
            bb.loopEnd(loop);
        });
    }
    // k2: UCT select — comparisons on random scores, with tree-walk
    // bookkeeping between them.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 24);
        bb.prngNext();
        bb.loadTableEntry(7, board, 12, B::Prng);
        bb.prngNext();
        bb.loadTableEntry(8, board, 12, B::Prng);
        const Label second = aa.newLabel();
        aa.blt(7, 8, second);          // H2P: score comparison
        aa.add(10, 10, 7);
        aa.bind(second);
        emitFiller(bb, 4);
        bb.loopEnd(loop);
    });
    // k3: pattern matcher — correlated chain with tight thresholds.
    kernels.push_back([=](ProgramBuilder &bb) {
        auto loop = bb.loopBegin(14, 12);
        emitCorrelatedChain(bb, board, 12, 35, 50, 65);
        emitFiller(bb, 3);
        bb.loopEnd(loop);
    });
    kernels.push_back(coldCodeKernel(cold, 4));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

// ------------------------------------------------------------------
// 648.exchange2_s-like: sudoku backtracking — deep regular loop
// nests, highly biased constraint checks, rare hard choices.
// ------------------------------------------------------------------
Program
doBuildExchange2(uint64_t seed)
{
    ProgramBuilder b("exchange2_like", seed);

    const uint64_t grid = b.table(10, pct);

    FuncLibraryParams lib;
    lib.numFuncs = 256;
    lib.biasChoices = {3, 8, 85, 92, 96};
    lib.structSeed = 0xe8c2;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0: 9x9 constraint sweep; violations are rare (3%).
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto rows = bb.loopBegin(13, 9);
        auto cols = bb.loopBegin(14, 9);
        bb.prngNext();
        bb.loadTableEntry(7, grid, 10, B::Prng);
        const Label ok = aa.newLabel();
        aa.li(8, 3);
        aa.blt(7, 8, ok);   // 3% violation
        aa.addi(10, 10, 1);
        aa.bind(ok);
        bb.loopEnd(cols);
        bb.loopEnd(rows);
    });
    // k1: digit placement — regular work, 7 hard choice sites that
    // fire once per 8 visits.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 8);
        for (unsigned site = 0; site < 7; ++site) {
            emitFiller(bb, 4);
            const Label skip = aa.newLabel();
            bb.periodicGate(13, 3, skip);
            emitCoinBranch(bb, grid, 10);   // H2P behind the gate
            aa.bind(skip);
        }
        bb.loopEnd(loop);
    });
    // k2: block verification, fully regular.
    kernels.push_back([=](ProgramBuilder &bb) {
        emitFiller(bb, 200);
    });
    kernels.push_back(coldCodeKernel(cold, 4));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

// ------------------------------------------------------------------
// 657.xz_s-like: LZMA-style compression — match-length loops with
// data-driven trip counts and near-random range-coder bit branches.
// ------------------------------------------------------------------
Program
doBuildXz(uint64_t seed)
{
    ProgramBuilder b("xz_like", seed);

    // Geometric-ish match lengths 1..24.
    const uint64_t matches = b.table(10, [](Rng &r, uint64_t) {
        uint64_t len = 1;
        while (len < 24 && r.chance(0.72))
            ++len;
        return len;
    });
    const uint64_t lit_thr = b.configWord(30 + b.rng().below(30));

    FuncLibraryParams lib;
    lib.numFuncs = 192;
    lib.biasChoices = {3, 7, 12, 85, 92, 96};
    lib.structSeed = 0x3c21;
    std::vector<Label> cold = emitFuncLibrary(b, lib);

    std::vector<KernelFn> kernels;
    // k0: match loop — trip count drawn per iteration, so the loop
    // exit is a systematic H2P the loop predictor cannot lock onto.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto outer = bb.loopBegin(13, 16);
        bb.prngNext();
        bb.loadTableEntry(11, matches, 10, B::Prng);
        auto match = bb.loopBeginDynamic(11);
        aa.add(10, 10, 11);
        aa.muli(10, 10, 5);
        bb.loopEnd(match);
        emitFiller(bb, 5);
        bb.loopEnd(outer);
    });
    // k1: literal/match decision with an input-specific bias.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 24);
        const Label match = aa.newLabel();
        bb.chanceVar(lit_thr, match);   // H2P, bias varies per input
        aa.addi(10, 10, 1);
        aa.bind(match);
        emitFiller(bb, 4);
        bb.loopEnd(loop);
    });
    // k2: range-coder bit branches (near-coin sites), diluted with
    // renormalization arithmetic.
    kernels.push_back([=](ProgramBuilder &bb) {
        Assembler &aa = bb.text();
        auto loop = bb.loopBegin(13, 20);
        for (unsigned site = 0; site < 3; ++site) {
            const Label skip = aa.newLabel();
            bb.chance(48 + site * 4, skip);   // H2P sites
            aa.xori(10, 10, 0x33);
            aa.bind(skip);
            emitFiller(bb, 3);
        }
        bb.loopEnd(loop);
    });
    kernels.push_back(coldCodeKernel(cold, 4));

    emitPhaseProgram(b, kernels, 10);
    return b.finish();
}

} // namespace

Program buildPerlbenchLike(uint64_t seed) { return doBuildPerlbench(seed); }
Program buildMcfLike(uint64_t seed) { return doBuildMcf(seed); }
Program buildOmnetppLike(uint64_t seed) { return doBuildOmnetpp(seed); }
Program buildXalancbmkLike(uint64_t seed) { return doBuildXalancbmk(seed); }
Program buildX264Like(uint64_t seed) { return doBuildX264(seed); }
Program buildDeepsjengLike(uint64_t seed) { return doBuildDeepsjeng(seed); }
Program buildLeelaLike(uint64_t seed) { return doBuildLeela(seed); }
Program buildExchange2Like(uint64_t seed) { return doBuildExchange2(seed); }
Program buildXzLike(uint64_t seed) { return doBuildXz(seed); }

std::vector<WorkloadInput>
makeInputs(const std::string &workload_name, unsigned count)
{
    std::vector<WorkloadInput> inputs;
    inputs.reserve(count);
    uint64_t base = 0;
    for (char c : workload_name)
        base = base * 131 + static_cast<unsigned char>(c);
    for (unsigned i = 0; i < count; ++i) {
        inputs.push_back(WorkloadInput{
            "input-" + std::to_string(i),
            mix64(base * 1000003 + i * 7919 + 13)});
    }
    return inputs;
}

std::vector<Workload>
specSuite()
{
    std::vector<Workload> suite;
    auto addWorkload = [&](const std::string &name, unsigned num_inputs,
                           Program (*fn)(uint64_t)) {
        Workload w;
        w.name = name;
        w.lcf = false;
        w.inputs = makeInputs(name, num_inputs);
        w.builder = fn;
        suite.push_back(std::move(w));
    };
    // Input counts from Table I's "# App. Inputs" column.
    addWorkload("perlbench_like", 4, &buildPerlbenchLike);
    addWorkload("mcf_like", 8, &buildMcfLike);
    addWorkload("omnetpp_like", 5, &buildOmnetppLike);
    addWorkload("xalancbmk_like", 4, &buildXalancbmkLike);
    addWorkload("x264_like", 14, &buildX264Like);
    addWorkload("deepsjeng_like", 12, &buildDeepsjengLike);
    addWorkload("leela_like", 10, &buildLeelaLike);
    addWorkload("exchange2_like", 5, &buildExchange2Like);
    addWorkload("xz_like", 5, &buildXzLike);
    return suite;
}

} // namespace bpnsp
