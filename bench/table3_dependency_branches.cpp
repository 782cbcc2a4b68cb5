/**
 * @file
 * Table III: dependency-branch statistics for the top H2P heavy
 * hitter of each SPEC-like benchmark — number of distinct dependency
 * branches and the min/max global-history positions at which they
 * appear. Paper finding: max positions fall within TAGE-SC-L 64KB's
 * 3,000-branch history limit, so *reach* is not the problem —
 * positional variation is.
 */

#include "analysis/depgraph.hpp"
#include "analysis/heavy_hitters.hpp"

#include "common.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Table III: dependency branches of heavy "
                      "hitters.");
    opts.addInt("instructions", 2000000,
                "trace length per workload (pre-scale)");
    opts.addInt("window", 5000, "dataflow lookback (instructions)");
    opts.addInt("sample", 8, "analyze every n-th H2P execution");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("Dependency branches of the top H2P heavy hitter",
           "Table III");

    TextTable table("Table III analogue (5,000-instruction operand "
                    "dependency graphs)");
    table.setHeader({"benchmark", "H2P ip", "dep branches",
                     "min hist pos", "max hist pos",
                     "analyzed execs"});

    for (const Workload &w : specSuite()) {
        // Find the top heavy hitter.
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
        if (ranked.empty()) {
            table.beginRow();
            table.cell(w.name);
            table.cell(std::string("(no H2P)"));
            table.cell(std::string("-"));
            table.cell(std::string("-"));
            table.cell(std::string("-"));
            table.cell(std::string("-"));
            continue;
        }
        const uint64_t target = ranked.front().ip;

        DependencyAnalyzer analyzer(
            target, static_cast<unsigned>(opts.getInt("window")),
            static_cast<unsigned>(opts.getInt("sample")));
        runWorkloadTrace(w, 0, {&analyzer}, instructions);

        char ip_str[32];
        std::snprintf(ip_str, sizeof(ip_str), "0x%llx",
                      static_cast<unsigned long long>(target));
        table.beginRow();
        table.cell(w.name);
        table.cell(std::string(ip_str));
        table.cell(static_cast<uint64_t>(
            analyzer.dependencyBranches().size()));
        table.cell(static_cast<uint64_t>(
            analyzer.dependencyBranches().empty()
                ? 0
                : analyzer.minPosition()));
        table.cell(static_cast<uint64_t>(analyzer.maxPosition()));
        table.cell(analyzer.analyzedExecutions());
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }
    emit(table);
    std::printf("Paper: 3-484 dependency branches; min positions 1-3; "
                "max positions 34-1,879 — within the 64KB history "
                "limit yet spread over many positions.\n");
    return 0;
}
