/**
 * @file
 * Ablation (not a paper figure): what each TAGE-SC-L component buys.
 * Runs TAGE alone, TAGE+L, TAGE+SC, and the full ensemble over the
 * SPEC-like suite in one pass per workload, quantifying the Sec. II
 * taxonomy — the loop predictor rescues counted-loop exits, the
 * statistical corrector rescues statistically-biased branches TAGE
 * oscillates on.
 */

#include "bp/tagescl.hpp"

#include "common.hpp"
#include "util/stats.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Ablation: TAGE-SC-L component contributions.");
    opts.addInt("instructions", 2000000,
                "trace length per workload (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("TAGE-SC-L component ablation", "Sec. II (taxonomy)");

    TextTable table("Accuracy by enabled components (8KB preset)");
    table.setHeader({"workload", "tage", "tage+l", "tage+sc",
                     "tage-sc-l", "sc gain", "loop gain"});

    std::vector<double> sc_gains;
    std::vector<double> loop_gains;
    for (const Workload &w : specSuite()) {
        auto makeVariant = [](bool loop, bool sc) {
            TageSclConfig cfg = TageSclConfig::preset(8);
            cfg.enableLoop = loop;
            cfg.enableSc = sc;
            return std::make_unique<TageSclPredictor>(cfg);
        };
        std::vector<std::unique_ptr<BranchPredictor>> bps;
        bps.push_back(makeVariant(false, false));
        bps.push_back(makeVariant(true, false));
        bps.push_back(makeVariant(false, true));
        bps.push_back(makeVariant(true, true));

        std::vector<std::unique_ptr<PredictorSim>> sims;
        std::vector<TraceSink *> sinks;
        for (auto &bp : bps) {
            sims.push_back(
                std::make_unique<PredictorSim>(*bp, false));
            sinks.push_back(sims.back().get());
        }
        runWorkloadTrace(w, 0, sinks, instructions);

        const double sc_gain =
            sims[3]->accuracy() - sims[1]->accuracy();
        const double loop_gain =
            sims[3]->accuracy() - sims[2]->accuracy();
        sc_gains.push_back(sc_gain);
        loop_gains.push_back(loop_gain);

        table.beginRow();
        table.cell(w.name);
        for (auto &sim : sims)
            table.cell(sim->accuracy(), 4);
        table.cell(sc_gain * 100, 2);
        table.cell(loop_gain * 100, 2);
    }
    emit(table);
    std::printf("mean gain from SC: %+.2f%% accuracy; from loop "
                "predictor: %+.2f%% (both on top of the rest of the "
                "ensemble)\n",
                mean(sc_gains) * 100, mean(loop_gains) * 100);
    return 0;
}
