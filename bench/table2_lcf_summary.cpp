/**
 * @file
 * Table II: summary branch statistics of the large-code-footprint
 * applications under TAGE-SC-L 8KB — static branch IPs, average
 * dynamic executions per static branch, average accuracy *per static
 * branch*, and H2P counts. Paper findings: mean 14,072 static IPs,
 * 612.8 dynamic executions per branch, 0.85 mean per-branch accuracy,
 * 5.2 H2Ps.
 */

#include "common.hpp"
#include "util/stats.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Table II: LCF branch summary.");
    opts.addInt("instructions", 3000000,
                "trace length per application (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("LCF application summary", "Table II");

    TextTable table("Table II analogue (TAGE-SC-L 8KB, one trace per "
                    "application)");
    table.setHeader({"application", "static branch IPs",
                     "avg dyn execs/branch", "avg acc per static br",
                     "dynamic acc", "H2Ps"});

    OnlineStats mean_static;
    OnlineStats mean_execs;
    OnlineStats mean_acc;
    OnlineStats mean_h2ps;
    for (const Workload &w : lcfSuite()) {
        auto bp = makePredictor("tage-sc-l-8KB");
        PredictorSim sim(*bp);
        runWorkloadTrace(w, 0, {&sim}, instructions);

        const H2pCriteria criteria =
            H2pCriteria{}.scaledTo(instructions);
        OnlineStats per_branch_acc;
        uint64_t h2ps = 0;
        for (const auto &[ip, c] : sim.perBranch()) {
            per_branch_acc.add(c.accuracy());
            if (criteria.matches(c))
                ++h2ps;
        }
        const double execs_per_branch =
            static_cast<double>(sim.condExecs()) /
            static_cast<double>(sim.perBranch().size());

        table.beginRow();
        table.cell(w.name);
        table.cell(static_cast<uint64_t>(sim.perBranch().size()));
        table.cell(execs_per_branch, 1);
        table.cell(per_branch_acc.mean(), 2);
        table.cell(sim.accuracy(), 3);
        table.cell(h2ps);

        mean_static.add(static_cast<double>(sim.perBranch().size()));
        mean_execs.add(execs_per_branch);
        mean_acc.add(per_branch_acc.mean());
        mean_h2ps.add(static_cast<double>(h2ps));
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }
    table.beginRow();
    table.cell(std::string("MEAN"));
    table.cell(mean_static.mean(), 0);
    table.cell(mean_execs.mean(), 1);
    table.cell(mean_acc.mean(), 2);
    table.cell(std::string("-"));
    table.cell(mean_h2ps.mean(), 1);
    emit(table);
    std::printf("Paper means (30M traces): 14,072 static IPs, 612.8 "
                "execs/branch, 0.85 accuracy, 5.2 H2Ps.\n");
    return 0;
}
