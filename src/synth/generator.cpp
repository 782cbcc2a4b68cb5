#include "synth/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workloads/builder.hpp"
#include "workloads/dispatch.hpp"

namespace bpnsp::synth {

namespace {

using B = ProgramBuilder;

uint64_t
clampU64(uint64_t v, uint64_t lo, uint64_t hi)
{
    return std::min(std::max(v, lo), hi);
}

/** How one sampled static branch will be emitted. */
struct BranchPlan
{
    enum class Kind { Chance, Loop, DataSmall, DataLarge };
    Kind kind = Kind::DataLarge;
    unsigned pct = 50;     ///< taken percentage (Chance/Data)
    unsigned trips = 4;    ///< loop trip count (Loop)
};

/**
 * Map one (taken-rate, entropy) sample to an emitter. The thresholds
 * mirror what each emitter can actually realize: `chance` branches
 * carry full per-execution entropy, counted loops carry none, and
 * table-threshold branches sit in between depending on table size.
 */
BranchPlan
planBranch(double takenRate, double entropy)
{
    BranchPlan plan;
    // Aim at the center of the 0.1-wide histogram bin the sample came
    // from: every emitter realizes its rate to within a couple of
    // percent, and a mid-bin target keeps the refitted branch in the
    // bin the profile drew it from instead of straddling an edge.
    const unsigned bin = static_cast<unsigned>(
        std::min(std::floor(takenRate * 10.0), 9.0));
    plan.pct = bin * 10 + 5;
    if (bin == 9 && entropy < 0.3) {
        // Strongly-taken low-entropy branches are loop back edges: a
        // 20-trip counted loop's back edge is taken 19/20 = 0.95, the
        // bin center.
        plan.kind = BranchPlan::Kind::Loop;
        plan.trips = 20;
    } else if (entropy >= 0.55) {
        plan.kind = BranchPlan::Kind::Chance;
    } else if (entropy < 0.25) {
        plan.kind = BranchPlan::Kind::DataSmall;
    } else {
        plan.kind = BranchPlan::Kind::DataLarge;
    }
    return plan;
}

/**
 * Emit one planned branch. Low-entropy branches follow a
 * deterministic run pattern over the iteration counter (history
 * predictors learn the run boundary); high-entropy ones test fresh
 * PRNG-indexed data. In both cases the branch is taken when the
 * tested value is below the planned percentage, so its taken rate
 * itself lands in the profile bin the sample came from.
 */
void
emitPlannedBranch(ProgramBuilder &b, const BranchPlan &plan,
                  uint64_t largeBase)
{
    Assembler &a = b.text();
    switch (plan.kind) {
      case BranchPlan::Kind::Chance: {
        const Label taken = a.newLabel();
        b.chance(plan.pct, taken);
        a.xori(13, 13, 0x2d);
        a.bind(taken);
        break;
      }
      case BranchPlan::Kind::Loop: {
        auto loop = b.loopBegin(11, plan.trips);
        a.add(13, 13, 11);
        b.loopEnd(loop);
        break;
      }
      case BranchPlan::Kind::DataSmall: {
        // Taken on the first k of every 64 iterations: the rate is
        // exactly k/64 and the period-64 run is nearly deterministic
        // under a short outcome history.
        const Label taken = a.newLabel();
        a.andi(9, B::Iter, 63);
        a.li(10, static_cast<int64_t>((plan.pct * 64 + 50) / 100));
        a.blt(9, 10, taken);
        a.add(13, 13, 9);
        a.bind(taken);
        break;
      }
      case BranchPlan::Kind::DataLarge: {
        // The large table holds the exact 0..99 quantiles (stratified,
        // not sampled), so the fraction of entries below pct is within
        // 1/128 of pct/100; PRNG indexing makes each execution an
        // independent draw.
        b.prngNext();
        b.loadTableEntry(9, largeBase, 7, B::Prng);
        const Label taken = a.newLabel();
        a.li(10, static_cast<int64_t>(plan.pct));
        a.blt(9, 10, taken);
        a.add(13, 13, 9);
        a.bind(taken);
        break;
      }
    }
}

/** One slot of the instruction-class-mix filler. */
enum class FillerOp { Alu, Mul, Div, Load, Store };

/**
 * Pick filler slots matching the profile's class mix. Branch/control
 * classes are excluded (branches are planned separately); the
 * remaining mass is renormalized over {alu, mul, div, load, store}.
 */
std::vector<FillerOp>
planFiller(const SynthProfile &profile, Rng &rng, size_t slots)
{
    const FillerOp ops[5] = {FillerOp::Alu, FillerOp::Mul,
                             FillerOp::Div, FillerOp::Load,
                             FillerOp::Store};
    double weights[5] = {
        profile.classFraction(InstrClass::Alu),
        profile.classFraction(InstrClass::Mul),
        profile.classFraction(InstrClass::Div),
        profile.classFraction(InstrClass::Load),
        profile.classFraction(InstrClass::Store),
    };
    double total = 0.0;
    for (const double w : weights)
        total += w;
    if (total <= 0.0) {
        weights[0] = 1.0;   // degenerate profile: plain ALU filler
        total = 1.0;
    }
    std::vector<FillerOp> plan;
    plan.reserve(slots);
    for (size_t i = 0; i < slots; ++i) {
        double u = rng.uniform() * total;
        size_t pick = 0;
        for (size_t k = 0; k < 5; ++k) {
            u -= weights[k];
            if (u < 0.0) {
                pick = k;
                break;
            }
        }
        plan.push_back(ops[pick]);
    }
    return plan;
}

/**
 * Emit the filler slots, inside a short counted loop when `withLoop`
 * (small-footprint profiles skip the loop so its back edge does not
 * distort a tiny branch population). r14 holds the scratch-table base
 * for the kernel, r13 is the rotating data value, r12 the loop
 * counter.
 */
void
emitFiller(ProgramBuilder &b, const std::vector<FillerOp> &slots,
           uint64_t scratchBase, unsigned trips, bool withLoop)
{
    Assembler &a = b.text();
    a.li(14, static_cast<int64_t>(scratchBase));
    ProgramBuilder::LoopCtx loop{};
    if (withLoop)
        loop = b.loopBegin(12, trips);
    else
        a.li(12, static_cast<int64_t>(trips));
    a.add(13, 13, 12);   // restart the chain: iterations overlap
    for (const FillerOp op : slots) {
        switch (op) {
          case FillerOp::Alu:
            a.xori(13, 13, 0x35);
            break;
          case FillerOp::Mul:
            a.muli(13, 13, 3);
            break;
          case FillerOp::Div:
            a.div(13, 13, 12);
            break;
          case FillerOp::Load:
            a.andi(11, 13, 63 * 8);
            a.add(11, 11, 14);
            a.load(13, 11, 0);
            break;
          case FillerOp::Store:
            a.andi(11, 13, 63 * 8);
            a.add(11, 11, 14);
            a.store(13, 11, 0);
            break;
        }
    }
    if (withLoop)
        b.loopEnd(loop);
}

} // namespace

Program
generateProgram(const SynthProfile &profile, uint64_t seed,
                const std::string &program_name)
{
    static obs::Counter &generated =
        obs::counter("synth.programs_generated");

    // All structural decisions flow from this stream — a pure function
    // of the profile's canonical rendering and the seed, which is the
    // whole determinism contract.
    Rng structRng = Rng::stream(splitmix64(seed) ^
                                    fnv1a(profile.render()),
                                "synth.structure");
    ProgramBuilder b(program_name, seed);
    Assembler &a = b.text();

    // --- derived shape -------------------------------------------------
    // Scale the scaffold with the profile's static footprint: a
    // 4-branch kernel benchmark gets one small kernel (the sampled
    // branches must dominate its static population, or the fitted
    // taken-rate distribution drowns in scaffold back-edges), a
    // many-thousand-branch LCF profile gets the full phase + library
    // structure.
    const uint64_t targetStatic =
        std::max<uint64_t>(profile.staticCondBranches, 4);
    const bool wantCalls =
        profile.calls > 0 || profile.staticCallTargets > 0;
    const unsigned numKernels =
        static_cast<unsigned>(clampU64(targetStatic / 12 + 1, 1, 4));
    const bool fillerLoop = targetStatic >= 12;
    const unsigned numFuncs =
        wantCalls
            ? static_cast<unsigned>(clampU64(
                  std::min(std::max<uint64_t>(
                               profile.staticCallTargets, 1),
                           targetStatic),
                  1, 400))
            : 0;
    // Kernels at even indices host the call/dispatch block.
    const unsigned callKernels = wantCalls ? (numKernels + 1) / 2 : 0;

    // Call-stream skew: the fewer hot branches the profile has, the
    // steeper the Zipf over library functions.
    const double heavyTail = profile.execLog2.massAbove(12.0);
    const double zipfExp =
        std::clamp(0.6 + (1.0 - heavyTail) * 0.9, 0.6, 1.5);

    // Call rate: gate the dispatch block so calls per instruction land
    // near the profile's. A kernel invocation retires very roughly 200
    // instructions, so period = callsPerInstr^-1 / 200. The gate's own
    // branch is almost-always-taken, so small-footprint profiles skip
    // it — one uncontrolled branch among four would swamp the fitted
    // distribution.
    unsigned log2CallPeriod = 0;
    if (wantCalls && targetStatic >= 32 && profile.calls > 0 &&
        profile.instructions > 0) {
        const double perInstr =
            static_cast<double>(profile.calls) /
            static_cast<double>(profile.instructions);
        const double period = 1.0 / std::max(perInstr * 200.0, 1e-6);
        log2CallPeriod = static_cast<unsigned>(std::clamp(
            std::lround(std::log2(std::max(period, 1.0))), 0l, 8l));
    }

    // Static-branch budget. Scaffold branches (phase dispatch, filler
    // back edges, dispatch trees, call gates) are structural and not
    // drawn from the profile; everything else is planned by sampling
    // the profile's joint (taken-rate, entropy) distributions, split
    // between the kernels (up to 48/96 branches apiece) and the
    // function library, which absorbs the rest of the budget.
    const uint64_t scaffold =
        numKernels + (fillerLoop ? numKernels : 0) +
        (numFuncs > 1
             ? static_cast<uint64_t>(numFuncs - 1) * callKernels
             : 0) +
        (log2CallPeriod > 0 ? callKernels : 0);
    const uint64_t planned =
        targetStatic > scaffold + 2 ? targetStatic - scaffold : 2;
    const uint64_t kernelTotal = std::min<uint64_t>(
        planned, static_cast<uint64_t>(numKernels) *
                     (wantCalls ? 48 : 96));
    const unsigned funcBranches =
        numFuncs > 0
            ? static_cast<unsigned>(clampU64(
                  (planned - kernelTotal + numFuncs - 1) / numFuncs, 0,
                  30))
            : 0;

    // Phase length from the recurrence scale: branches with long
    // median recurrence only exist when the program dwells in a phase
    // long enough for whole kernels to go cold between visits. The
    // floor of 64 iterations keeps each kernel's view of the
    // iteration counter unbiased: DataSmall branches key on
    // (Iter & 63), and a shorter segment would alias against that
    // period, feeding each kernel only a skewed slice of the pattern.
    const double recurMean = profile.recurrenceLog2.mean();
    const unsigned log2Segment = static_cast<unsigned>(
        std::clamp(std::lround(recurMean / 2.0) + 2, 6l, 10l));

    // --- pre-sample all branch plans ----------------------------------
    // Quota-sampled (not iid): for a 4-branch profile, three
    // independent draws routinely double up a bin and blow the fitted
    // distribution; stratified allocation reproduces the histogram to
    // within one branch.
    const uint64_t totalPlanned =
        kernelTotal + static_cast<uint64_t>(funcBranches) * numFuncs;
    const std::vector<double> takenSamples =
        profile.takenRate.stratified(totalPlanned, structRng);
    const std::vector<double> entropySamples =
        profile.historyEntropy.stratified(totalPlanned, structRng);
    size_t planIdx = 0;
    const auto samplePlan = [&] {
        const double t = takenSamples[planIdx];
        const double e = entropySamples[planIdx];
        ++planIdx;
        return planBranch(t, e);
    };
    std::vector<std::vector<BranchPlan>> kernelPlans(numKernels);
    for (uint64_t i = 0; i < kernelTotal; ++i)
        kernelPlans[i % numKernels].push_back(samplePlan());
    std::vector<std::vector<BranchPlan>> funcPlans(numFuncs);
    for (unsigned f = 0; f < numFuncs; ++f)
        for (unsigned i = 0; i < funcBranches; ++i)
            funcPlans[f].push_back(samplePlan());
    std::vector<std::vector<FillerOp>> kernelFiller(numKernels);
    for (unsigned k = 0; k < numKernels; ++k)
        kernelFiller[k] = planFiller(profile, structRng, 10);

    // --- data tables ---------------------------------------------------
    // The table backing the high-entropy data branches holds the exact
    // 0..99 quantiles (PRNG indexing randomizes the access order, so
    // sorted contents cost nothing and buy exact rates).
    const uint64_t largeBase = b.table(
        7, [](Rng &, uint64_t i) { return (i * 100) >> 7; });
    std::vector<uint64_t> scratchBases;
    for (unsigned k = 0; k < numKernels; ++k)
        scratchBases.push_back(
            b.table(6, [](Rng &r, uint64_t) { return r.next(); }));

    // --- function library + call sequence ------------------------------
    // The library is emitted here rather than via emitFuncLibrary so
    // every call-reached branch is drawn from the profile with the
    // same precision as the kernels (emitFuncLibrary's bias knob is a
    // skip-branch threshold over random data — mirrored rate, table
    // noise — which is exactly what a fidelity-validated program
    // cannot afford).
    std::vector<Label> funcs;
    uint64_t seqBase = 0;
    if (wantCalls) {
        for (unsigned f = 0; f < numFuncs; ++f) {
            funcs.push_back(a.newLabel());
            a.bind(funcs.back());
            a.addi(13, 13, static_cast<int64_t>(f));
            for (const BranchPlan &plan : funcPlans[f])
                emitPlannedBranch(b, plan, largeBase);
            a.ret();
        }
        seqBase = makeZipfCallSequence(b, 10, numFuncs, zipfExp,
                                       /*min_run=*/2, /*max_run=*/6);
    }

    // --- kernels -------------------------------------------------------
    std::vector<std::function<void(ProgramBuilder &)>> kernels;
    for (unsigned k = 0; k < numKernels; ++k) {
        const std::vector<BranchPlan> plans = kernelPlans[k];
        const std::vector<FillerOp> filler = kernelFiller[k];
        const uint64_t scratch = scratchBases[k];
        const bool callsHere = wantCalls && (k % 2 == 0);
        kernels.push_back([=, &funcs](ProgramBuilder &kb) {
            Assembler &ka = kb.text();
            // 20 trips puts the filler back edge at 19/20 taken — the
            // [0.9,1.0) bin, where real profiles keep their loop mass.
            emitFiller(kb, filler, scratch, 20, fillerLoop);
            for (const BranchPlan &plan : plans)
                emitPlannedBranch(kb, plan, largeBase);
            if (callsHere) {
                const Label skip = ka.newLabel();
                const Label done = ka.newLabel();
                if (log2CallPeriod > 0)
                    kb.periodicGate(B::Iter, log2CallPeriod, skip);
                kb.loadTableEntry(7, seqBase, 10, B::Iter);
                emitDispatchTree(ka, 7, funcs, done);
                ka.bind(done);
                ka.bind(skip);
            }
        });
    }

    emitPhaseProgram(b, kernels, log2Segment);
    (void)a;
    generated.inc();
    return b.finish();
}

std::string
renderProgramListing(const Program &program)
{
    std::ostringstream oss;
    oss << "entry " << program.entry << " base " << program.codeBase
        << "\n";
    for (size_t i = 0; i < program.code.size(); ++i) {
        const Instr &in = program.code[i];
        oss << i << ": " << opcodeName(in.op) << " "
            << static_cast<unsigned>(in.rd) << ","
            << static_cast<unsigned>(in.ra) << ","
            << static_cast<unsigned>(in.rb) << "," << in.imm << "\n";
    }
    for (const auto &[addr, value] : program.dataInit)
        oss << "data " << addr << "=" << value << "\n";
    return oss.str();
}

std::string
programDigest(const Program &program)
{
    char buf[20];
    std::snprintf(
        buf, sizeof(buf), "%016llx",
        static_cast<unsigned long long>(
            fnv1a(renderProgramListing(program))));
    return buf;
}

} // namespace bpnsp::synth
