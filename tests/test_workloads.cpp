/**
 * @file
 * Tests for the synthetic workload suite: construction invariants
 * (same code across inputs, data-only variation), execution health,
 * and the branch-population properties each suite is designed for.
 */

#include <gtest/gtest.h>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "trace/sink.hpp"
#include "vm/interpreter.hpp"
#include "workloads/builder.hpp"
#include "workloads/dispatch.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

// ------------------------------------------------------------ builder

TEST(ProgramBuilder, PrologueSetsConventions)
{
    ProgramBuilder b("t", 99);
    b.text().bind(b.entryLabel());
    b.prologue();
    b.text().halt();
    const Program prog = b.finish();
    Interpreter interp(prog);
    CountingSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(ProgramBuilder::Zero), 0u);
    EXPECT_EQ(interp.reg(ProgramBuilder::Hundred), 100u);
    EXPECT_NE(interp.reg(ProgramBuilder::Prng), 0u);
}

TEST(ProgramBuilder, ChanceApproximatesBias)
{
    ProgramBuilder b("t", 7);
    Assembler &a = b.text();
    a.bind(b.entryLabel());
    b.prologue();
    const auto loop = b.loopBegin(13, 20000);
    const Label hit = a.newLabel();
    const Label done = a.newLabel();
    b.chance(30, hit);   // jumps to `hit` with probability 30%
    a.jmp(done);
    a.bind(hit);
    a.addi(14, 14, 1);   // count taken
    a.bind(done);
    b.loopEnd(loop);
    a.halt();
    const Program prog = b.finish();
    Interpreter interp(prog);
    CountingSink sink;
    interp.run(sink, 2000000);
    const double frac =
        static_cast<double>(interp.reg(14)) / 20000.0;
    EXPECT_NEAR(frac, 0.30, 0.02);
}

TEST(ProgramBuilder, PushPopRoundTrip)
{
    ProgramBuilder b("t", 3);
    Assembler &a = b.text();
    a.bind(b.entryLabel());
    b.prologue();
    a.li(7, 111);
    a.li(8, 222);
    b.push(7);
    b.push(8);
    a.li(7, 0);
    a.li(8, 0);
    b.pop(8);
    b.pop(7);
    a.halt();
    const Program prog = b.finish();
    Interpreter interp(prog);
    CountingSink sink;
    interp.run(sink, 100);
    EXPECT_EQ(interp.reg(7), 111u);
    EXPECT_EQ(interp.reg(8), 222u);
}

TEST(ProgramBuilder, PeriodicGateFiresEveryPeriod)
{
    ProgramBuilder b("t", 3);
    Assembler &a = b.text();
    a.bind(b.entryLabel());
    b.prologue();
    const auto loop = b.loopBegin(13, 64);
    a.sub(7, 13, ProgramBuilder::Zero);   // r7 = remaining count
    const Label skip = a.newLabel();
    b.periodicGate(7, 3, skip);
    a.addi(14, 14, 1);
    a.bind(skip);
    b.loopEnd(loop);
    a.halt();
    const Program prog = b.finish();
    Interpreter interp(prog);
    CountingSink sink;
    interp.run(sink, 10000);
    EXPECT_EQ(interp.reg(14), 8u);   // 64 / 2^3
}

TEST(Dispatch, TreeReachesEveryFunction)
{
    ProgramBuilder b("t", 3);
    Assembler &a = b.text();
    // Four functions, each bumping a distinct memory word.
    std::vector<Label> funcs;
    for (int f = 0; f < 4; ++f) {
        funcs.push_back(a.newLabel());
        a.bind(funcs.back());
        a.li(8, 0x9000 + f * 8);
        a.load(9, 8, 0);
        a.addi(9, 9, 1);
        a.store(9, 8, 0);
        a.ret();
    }
    a.bind(b.entryLabel());
    b.prologue();
    for (int idx = 0; idx < 4; ++idx) {
        const Label done = a.newLabel();
        a.li(7, idx);
        emitDispatchTree(a, 7, funcs, done);
        a.bind(done);
    }
    a.halt();
    const Program prog = b.finish();
    Interpreter interp(prog);
    CountingSink sink;
    interp.run(sink, 10000);
    for (int f = 0; f < 4; ++f)
        EXPECT_EQ(interp.memory().read(0x9000 + f * 8), 1u) << f;
}

TEST(Dispatch, FuncLibraryStructureInputInvariant)
{
    // Two builders with different data seeds must emit identical code.
    auto build = [](uint64_t seed) {
        ProgramBuilder b("t", seed);
        FuncLibraryParams params;
        params.numFuncs = 16;
        params.structSeed = 0xabc;
        emitFuncLibrary(b, params);
        b.text().bind(b.entryLabel());
        b.prologue();
        b.text().halt();
        return b.finish();
    };
    const Program p1 = build(1);
    const Program p2 = build(2);
    ASSERT_EQ(p1.code.size(), p2.code.size());
    for (size_t i = 0; i < p1.code.size(); ++i) {
        EXPECT_EQ(p1.code[i].op, p2.code[i].op) << i;
        EXPECT_EQ(p1.code[i].imm, p2.code[i].imm) << i;
    }
    // But the data differs (different input seeds).
    EXPECT_NE(p1.dataInit, p2.dataInit);
}

// -------------------------------------------------------------- suite

TEST(Suite, SeventeenWorkloads)
{
    const auto all = allWorkloads();
    EXPECT_EQ(all.size(), 17u);
    size_t lcf = 0;
    for (const auto &w : all)
        lcf += w.lcf;
    EXPECT_EQ(lcf, 7u);   // six Table II apps + vcall
    // The historical populations are frozen: fig_* benches iterate
    // these two suites directly.
    EXPECT_EQ(specSuite().size(), 9u);
    EXPECT_EQ(lcfSuite().size(), 6u);
    EXPECT_EQ(frontendSuite().size(), 2u);
}

TEST(Suite, FindByName)
{
    EXPECT_EQ(findWorkload("mcf_like").name, "mcf_like");
    EXPECT_TRUE(findWorkload("game").lcf);
    EXPECT_TRUE(findWorkload("vcall").lcf);
    EXPECT_FALSE(findWorkload("interp_like").lcf);
}

TEST(Suite, InputCountsMatchTableOne)
{
    EXPECT_EQ(findWorkload("perlbench_like").inputs.size(), 4u);
    EXPECT_EQ(findWorkload("mcf_like").inputs.size(), 8u);
    EXPECT_EQ(findWorkload("x264_like").inputs.size(), 14u);
    EXPECT_EQ(findWorkload("deepsjeng_like").inputs.size(), 12u);
    EXPECT_EQ(findWorkload("leela_like").inputs.size(), 10u);
}

/** Parameterized execution-health test over the whole suite. */
class WorkloadHealthTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadHealthTest, RunsAndBranches)
{
    const Workload w = findWorkload(GetParam());
    const Program p = w.build(0);
    CountingSink sink;
    Interpreter interp(p);
    interp.setRestartOnHalt(true);
    const uint64_t executed = interp.run(sink, 200000);
    EXPECT_EQ(executed, 200000u);
    // A sane branch mix: 5% to 40% conditional branches.
    const double frac = static_cast<double>(sink.condBranchCount()) /
                        static_cast<double>(sink.totalCount());
    EXPECT_GT(frac, 0.05) << w.name;
    EXPECT_LT(frac, 0.40) << w.name;
    // Loads must occur (data-driven behavior).
    EXPECT_GT(sink.classCount(InstrClass::Load), 0u);
}

TEST_P(WorkloadHealthTest, SameCodeAcrossInputs)
{
    const Workload w = findWorkload(GetParam());
    const Program a = w.build(0);
    const Program bp = w.build(w.inputs.size() - 1);
    ASSERT_EQ(a.code.size(), bp.code.size()) << w.name;
    for (size_t i = 0; i < a.code.size(); i += 97) {   // sampled
        EXPECT_EQ(a.code[i].op, bp.code[i].op) << w.name << " @" << i;
        EXPECT_EQ(a.code[i].imm, bp.code[i].imm);
    }
}

TEST_P(WorkloadHealthTest, DeterministicBuild)
{
    const Workload w = findWorkload(GetParam());
    const Program a = w.build(0);
    const Program b2 = w.build(0);
    EXPECT_EQ(a.code.size(), b2.code.size());
    EXPECT_EQ(a.dataInit, b2.dataInit);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadHealthTest,
    ::testing::Values("perlbench_like", "mcf_like", "omnetpp_like",
                      "xalancbmk_like", "x264_like", "deepsjeng_like",
                      "leela_like", "exchange2_like", "xz_like",
                      "gcc_like", "game", "rdbms", "nosql", "analytics",
                      "streaming", "vcall", "interp_like"));

// ------------------------------------------- population characteristics

TEST(SuiteCharacter, LcfHasManyMoreStaticBranchesThanSpec)
{
    auto countStatics = [](const std::string &name) {
        auto bp = makePredictor("bimodal");
        PredictorSim sim(*bp);
        runTrace(findWorkload(name).build(0), {&sim}, 400000);
        return sim.perBranch().size();
    };
    EXPECT_GT(countStatics("game"), 10 * countStatics("leela_like"));
}

TEST(SuiteCharacter, McfConcentratesMispredictions)
{
    auto bp = makePredictor("tage-sc-l-8KB");
    PredictorSim sim(*bp);
    runTrace(findWorkload("mcf_like").build(0), {&sim}, 1000000);
    // Top-5 branches by mispredictions must carry most of the total.
    std::vector<uint64_t> mispreds;
    for (const auto &[ip, c] : sim.perBranch())
        mispreds.push_back(c.mispreds);
    std::sort(mispreds.rbegin(), mispreds.rend());
    uint64_t top5 = 0;
    for (size_t i = 0; i < std::min<size_t>(5, mispreds.size()); ++i)
        top5 += mispreds[i];
    EXPECT_GT(static_cast<double>(top5) /
                  static_cast<double>(sim.condMispreds()),
              0.7);
}

TEST(SuiteCharacter, AccuracyOrderingLeelaVsXalancbmk)
{
    auto accuracy = [](const std::string &name) {
        auto bp = makePredictor("tage-sc-l-8KB");
        PredictorSim sim(*bp);
        runTrace(findWorkload(name).build(0), {&sim}, 1000000);
        return sim.accuracy();
    };
    // Table I's extremes: leela is the hardest, xalancbmk the easiest.
    EXPECT_LT(accuracy("leela_like") + 0.05,
              accuracy("xalancbmk_like"));
}
