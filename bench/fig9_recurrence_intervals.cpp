/**
 * @file
 * Fig. 9: distribution of the median recurrence interval (MRI) of
 * static branch IPs in the LCF dataset. Paper finding: MRIs peak
 * between 100K and 1M instructions — phase-like behavior exists on
 * timescales far beyond any on-BPU history, exploitable by phase-
 * aware helper predictors. (At reduced trace scale the whole
 * distribution shifts left proportionally; raise --scale to approach
 * the paper's 30M-instruction methodology.)
 */

#include "analysis/recurrence.hpp"

#include "common.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Fig. 9: median recurrence intervals.");
    opts.addInt("instructions", 4000000,
                "trace length per application (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("Median recurrence interval distribution (LCF)", "Fig. 9");

    RecurrenceCollector rec;
    for (const Workload &w : lcfSuite()) {
        runWorkloadTrace(w, 0, {&rec}, instructions);
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }

    const Histogram h = rec.medianHistogram();
    TextTable table("Static branch IP fraction by median recurrence "
                    "interval");
    table.setHeader({"MRI (instructions)", "branch IPs", "fraction"});
    for (size_t i = 0; i < h.numBins(); ++i) {
        table.beginRow();
        table.cell(h.binLabel(i));
        table.cell(h.count(i));
        table.cell(h.fraction(i), 4);
    }
    emit(table);

    std::printf("\n%s\n", h.render(48).c_str());
    std::printf("Paper: distribution peaks at 100K-1M instructions "
                "(30M traces). Total static branch IPs here: %zu.\n",
                rec.staticBranches());
    return 0;
}
