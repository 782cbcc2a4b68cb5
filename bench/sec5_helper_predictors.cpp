/**
 * @file
 * Sec. V: offline-trained helper predictors deployed alongside
 * TAGE-SC-L. Trains low-precision (2-bit) perceptron and CNN helpers
 * on traces from several application inputs and evaluates on a
 * held-out input — the offline-training/online-inference deployment
 * scenario the paper proposes for data-center workloads.
 */

#include "ml/trainer.hpp"

#include "common.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Sec. V: helper-predictor deployment study.");
    opts.addInt("instructions", 500000,
                "per-input trace length (pre-scale)");
    opts.addInt("helpers", 4, "H2P branches to cover");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("Offline-trained helper predictors on held-out inputs",
           "Sec. V");

    TextTable table("Helper deployment: baseline vs TAGE-SC-L+helpers "
                    "on a held-out input");
    table.setHeader({"workload", "model", "H2P ip", "train samples",
                     "test execs", "baseline acc", "helper acc",
                     "overall base", "overall overlay"});

    for (const char *name : {"leela_like", "x264_like", "xz_like"}) {
        const Workload w = findWorkload(name);
        for (const bool use_cnn : {false, true}) {
            HelperExperimentConfig cfg;
            cfg.screenInstructions = instructions;
            cfg.trainInstructions = instructions;
            cfg.testInstructions = instructions;
            cfg.maxHelpers =
                static_cast<unsigned>(opts.getInt("helpers"));
            cfg.useCnn = use_cnn;
            cfg.historyLength = 48;
            cfg.train.epochs = use_cnn ? 10 : 16;
            cfg.maxSamplesPerInput = 4000;
            const std::vector<size_t> train_inputs{0, 1, 2};
            const HelperExperimentResult r = runHelperExperiment(
                w, train_inputs, /*test_input=*/3, cfg);
            for (const auto &br : r.branches) {
                char ip_str[32];
                std::snprintf(ip_str, sizeof(ip_str), "0x%llx",
                              static_cast<unsigned long long>(br.ip));
                table.beginRow();
                table.cell(w.name);
                table.cell(std::string(use_cnn ? "cnn-2bit"
                                               : "perceptron-2bit"));
                table.cell(std::string(ip_str));
                table.cell(br.trainSamples);
                table.cell(br.testExecs);
                table.cell(br.baselineAccuracy, 3);
                table.cell(br.helperAccuracy, 3);
                table.cell(r.baselineOverallAccuracy, 4);
                table.cell(r.overlayOverallAccuracy, 4);
            }
            std::fprintf(stderr, "  %s (%s) done\n", name,
                         use_cnn ? "cnn" : "perceptron");
        }
    }
    emit(table);
    std::printf("Paper direction: branch-specific helpers trained "
                "offline over multiple inputs generalize to unseen "
                "inputs; on purely stochastic H2Ps the ceiling is the "
                "branch bias, which helpers should match without "
                "regressing the ensemble.\n");
    return 0;
}
