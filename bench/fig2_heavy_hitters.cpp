/**
 * @file
 * Fig. 2: cumulative fraction of mispredictions attributable to the
 * n-th H2P "heavy hitter" (H2Ps ranked by dynamic execution count),
 * per SPEC-like benchmark. Paper finding: the top five heavy hitters
 * account for 37% of dynamic mispredictions on average.
 */

#include "analysis/heavy_hitters.hpp"

#include "common.hpp"
#include "util/stats.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Fig. 2: H2P heavy-hitter misprediction CDF.");
    opts.addInt("instructions", 3000000,
                "trace length per workload (pre-scale)");
    opts.addInt("top", 10, "heavy hitters to list");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);
    const size_t top = static_cast<size_t>(opts.getInt("top"));

    banner("Cumulative misprediction fraction of H2P heavy hitters",
           "Fig. 2");

    TextTable table("Cumulative fraction of TAGE-SC-L 8KB "
                    "mispredictions (rank = by dynamic executions)");
    std::vector<std::string> header{"benchmark", "#H2Ps"};
    for (size_t n = 1; n <= top; ++n)
        header.push_back("top-" + std::to_string(n));
    table.setHeader(header);

    std::vector<double> top5;
    for (const Workload &w : specSuite()) {
        auto bp = makePredictor("tage-sc-l-8KB");
        PredictorSim sim(*bp);
        runWorkloadTrace(w, 0, {&sim}, instructions);

        const H2pCriteria criteria =
            H2pCriteria{}.scaledTo(instructions);
        std::unordered_set<uint64_t> h2ps;
        for (const auto &[ip, c] : sim.perBranch()) {
            if (criteria.matches(c))
                h2ps.insert(ip);
        }
        const auto ranked = rankHeavyHitters(sim.perBranch(), h2ps,
                                             sim.condMispreds());
        top5.push_back(topNMispredFraction(ranked, 5));

        table.beginRow();
        table.cell(w.name);
        table.cell(static_cast<uint64_t>(ranked.size()));
        for (size_t n = 1; n <= top; ++n)
            table.cell(topNMispredFraction(ranked, n), 3);
    }
    emit(table);
    std::printf("Top-5 heavy hitters cover %.1f%% of mispredictions "
                "on average (paper: 37%%; 55.3%% for the top ~10 per "
                "slice).\n",
                mean(top5) * 100.0);
    return 0;
}
