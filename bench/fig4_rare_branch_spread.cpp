/**
 * @file
 * Fig. 4: (a) prediction accuracy vs dynamic execution count for LCF
 * branches — rare branches spread across the whole accuracy range;
 * (b) standard deviation of accuracy, binned by execution count
 * (paper: 0.35 stddev below 100 executions, dropping to 0.08 for
 * 100-200).
 */

#include "analysis/distributions.hpp"

#include "common.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Fig. 4: accuracy spread of rare branches.");
    opts.addInt("instructions", 3000000,
                "trace length per application (pre-scale)");
    opts.addInt("bin-width", 100, "execution-count bin width");
    opts.addInt("max-execs", 1500, "largest execution count binned");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("Accuracy spread vs dynamic execution count", "Fig. 4");

    std::unordered_map<uint64_t, BranchCounters> totals;
    uint64_t next_key = 0;
    for (const Workload &w : lcfSuite()) {
        auto bp = makePredictor("tage-sc-l-8KB");
        PredictorSim sim(*bp);
        runWorkloadTrace(w, 0, {&sim}, instructions);
        for (const auto &[ip, c] : sim.perBranch())
            totals[next_key++] = c;
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }

    // Fig. 4a summary: quartiles of accuracy for rare vs hot branches.
    std::vector<double> rare_acc;
    std::vector<double> hot_acc;
    for (const auto &[key, c] : totals) {
        (c.execs < 100 ? rare_acc : hot_acc).push_back(c.accuracy());
    }
    std::printf("Fig. 4a summary: %zu rare (<100 exec) branches span "
                "accuracy [%.2f (p10) .. %.2f (p90)]; %zu hot "
                "branches span [%.2f .. %.2f]\n\n",
                rare_acc.size(), percentile(rare_acc, 10),
                percentile(rare_acc, 90), hot_acc.size(),
                percentile(hot_acc, 10), percentile(hot_acc, 90));

    const auto bins = accuracySpread(
        totals, static_cast<uint64_t>(opts.getInt("bin-width")),
        static_cast<uint64_t>(opts.getInt("max-execs")));
    TextTable table("Fig. 4b analogue: stddev of accuracy by "
                    "execution-count bin");
    table.setHeader({"executions", "branches", "mean acc",
                     "stddev acc"});
    for (const auto &bin : bins) {
        if (bin.branchCount == 0)
            continue;
        table.beginRow();
        table.cell(std::to_string(bin.execsLo) + "-" +
                   std::to_string(bin.execsHi));
        table.cell(bin.branchCount);
        table.cell(bin.meanAccuracy, 3);
        table.cell(bin.stddevAccuracy, 3);
    }
    emit(table);
    if (!bins.empty() && bins.size() > 1) {
        std::printf("first-bin stddev %.2f vs second-bin %.2f "
                    "(paper: 0.35 vs 0.08)\n",
                    bins[0].stddevAccuracy, bins[1].stddevAccuracy);
    }
    return 0;
}
