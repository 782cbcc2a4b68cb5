/**
 * @file
 * Authoring a custom workload against the assembler API: a tiny
 * binary-search benchmark whose compare branch is data-dependent, run
 * through the predictor zoo. Demonstrates the full path from program
 * text to branch statistics.
 *
 * Usage: custom_workload [--elements=4096] [--instructions=400000]
 */

#include <cstdio>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/report.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "workloads/builder.hpp"

using namespace bpnsp;
using B = bpnsp::ProgramBuilder;

namespace {

/** A binary-search kernel over a sorted table of random keys. */
Program
buildBinarySearch(uint64_t seed, unsigned log2_elements)
{
    ProgramBuilder b("binary_search", seed);
    Assembler &a = b.text();

    // Sorted key table (values 16*i + jitter keep it strictly sorted).
    const uint64_t keys = b.table(log2_elements, [](Rng &r, uint64_t i) {
        return i * 16 + r.below(8);
    });
    const uint64_t n = 1ull << log2_elements;

    a.bind(b.entryLabel());
    b.prologue();
    const Label search_loop = a.here();

    // Probe key: fresh pseudo-random value in the key range.
    a.li(6, 0);                         // lo
    a.li(7, static_cast<int64_t>(n));   // hi
    b.prngNext();
    a.li(8, static_cast<int64_t>(n * 16));
    a.rem(9, ProgramBuilder::Prng, 8);  // r9 = probe key

    const Label bs_head = a.here();
    const Label done = a.newLabel();
    // while (lo < hi)
    a.bge(6, 7, done);
    // mid = (lo + hi) / 2
    a.add(10, 6, 7);
    a.shri(10, 10, 1);
    // load keys[mid]
    a.shli(11, 10, 3);
    a.li(12, static_cast<int64_t>(keys));
    a.add(11, 11, 12);
    a.load(13, 11, 0);
    // if (keys[mid] < probe) lo = mid + 1 else hi = mid
    const Label go_right = a.newLabel();
    const Label next = a.newLabel();
    a.blt(13, 9, go_right);   // the data-dependent H2P
    a.mov(7, 10);
    a.jmp(next);
    a.bind(go_right);
    a.addi(6, 10, 1);
    a.bind(next);
    a.jmp(bs_head);

    a.bind(done);
    a.addi(ProgramBuilder::Iter, ProgramBuilder::Iter, 1);
    a.jmp(search_loop);
    return b.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("Custom workload: binary search kernel.");
    opts.addInt("log2-elements", 12, "log2 of the table size");
    opts.addInt("instructions", 400000, "trace length");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    const Program program = buildBinarySearch(
        0xb5, static_cast<unsigned>(opts.getInt("log2-elements")));
    std::printf("program: %llu static instructions, %llu conditional "
                "branches\n\n",
                static_cast<unsigned long long>(program.size()),
                static_cast<unsigned long long>(
                    program.staticCondBranches()));

    std::vector<std::unique_ptr<BranchPredictor>> predictors;
    std::vector<std::unique_ptr<PredictorSim>> sims;
    std::vector<TraceSink *> sinks;
    for (const char *name :
         {"bimodal", "gshare", "tage-sc-l-8KB", "perfect"}) {
        predictors.push_back(makePredictor(name));
        sims.push_back(
            std::make_unique<PredictorSim>(*predictors.back()));
        sinks.push_back(sims.back().get());
    }
    runTrace(program, sinks,
             static_cast<uint64_t>(opts.getInt("instructions")));

    TextTable table("Binary search: the compare branch resists "
                    "history prediction");
    table.setHeader({"predictor", "accuracy", "MPKI"});
    for (size_t i = 0; i < sims.size(); ++i) {
        table.beginRow();
        table.cell(predictors[i]->name());
        table.cell(sims[i]->accuracy(), 4);
        table.cell(sims[i]->mpki(), 2);
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
