/**
 * @file
 * Fig. 3: distributions over the LCF static-branch population —
 * dynamic mispredictions (left), dynamic executions (middle), and
 * prediction accuracy (right) — using the paper's bin edges.
 *
 * Paper findings: executions skew left (85% of branches execute <100
 * times); mispredictions skew to zero; 55% of branches are >=0.99
 * accurate yet 12% sit at <=0.10 accuracy.
 */

#include "analysis/distributions.hpp"

#include "common.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

namespace {

void
printHistogram(const char *title, const Histogram &h)
{
    TextTable table(title);
    table.setHeader({"bin", "static branch IPs", "fraction"});
    for (size_t i = 0; i < h.numBins(); ++i) {
        table.beginRow();
        table.cell(h.binLabel(i));
        table.cell(h.count(i));
        table.cell(h.fraction(i), 4);
    }
    emit(table);
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("Fig. 3: LCF branch population distributions.");
    opts.addInt("instructions", 3000000,
                "trace length per application (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("LCF branch population distributions", "Fig. 3");

    // Aggregate per-branch totals over the whole LCF dataset, as the
    // paper does.
    std::unordered_map<uint64_t, BranchCounters> totals;
    uint64_t next_key = 0;
    for (const Workload &w : lcfSuite()) {
        auto bp = makePredictor("tage-sc-l-8KB");
        PredictorSim sim(*bp);
        runWorkloadTrace(w, 0, {&sim}, instructions);
        for (const auto &[ip, c] : sim.perBranch())
            totals[next_key++] = c;   // disjoint keys across apps
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }

    const BranchDistributions d = computeBranchDistributions(totals);
    printHistogram("Dynamic mispredictions per static branch",
                   d.mispredictions);
    printHistogram("Dynamic executions per static branch", d.executions);
    printHistogram("Prediction accuracy per static branch", d.accuracy);

    const double under_100_execs = d.executions.fraction(0);
    const double acc_99 = d.accuracy.fraction(d.accuracy.numBins() - 1);
    const double acc_10 = d.accuracy.fraction(0);
    std::printf("branches with <100 executions: %.0f%% (paper: 85%%)\n"
                "branches with >=0.99 accuracy:  %.0f%% (paper: 55%%)\n"
                "branches with <=0.10 accuracy:  %.0f%% (paper: 12%%)\n",
                under_100_execs * 100, acc_99 * 100, acc_10 * 100);
    return 0;
}
