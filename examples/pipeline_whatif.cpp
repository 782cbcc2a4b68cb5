/**
 * @file
 * Pipeline what-if: how much IPC would a better branch predictor buy
 * on a future, wider core? Runs one workload through every (predictor,
 * pipeline-scale) combination in a single trace pass and prints the
 * absolute IPC grid — the Fig. 1 methodology as an interactive tool.
 *
 * Usage: pipeline_whatif [--workload=mcf_like]
 *                        [--instructions=1000000]
 */

#include <algorithm>
#include <cstdio>

#include "bp/factory.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/report.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

int
main(int argc, char **argv)
{
    OptionParser opts("IPC grid over predictors and pipeline scales.");
    opts.addString("workload", "mcf_like", "workload name");
    opts.addInt("instructions", 1000000, "trace length");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    const Workload w = findWorkload(opts.getString("workload"));
    const uint64_t instructions =
        static_cast<uint64_t>(opts.getInt("instructions"));
    const std::vector<unsigned> scales{1, 2, 4, 8};

    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> preds;
    for (const char *name : {"bimodal", "gshare", "tage-sc-l-8KB",
                             "tage-sc-l-64KB", "perfect"}) {
        preds.emplace_back(name, makePredictor(name));
    }
    const IpcStudyResult study = runIpcStudy(
        w, 0, std::move(preds), scales, instructions);

    TextTable table("Absolute IPC on " + w.name);
    std::vector<std::string> header{"predictor", "accuracy"};
    for (unsigned s : scales)
        header.push_back(std::to_string(s) + "x");
    table.setHeader(header);
    for (const auto &col : study.columns) {
        table.beginRow();
        table.cell(col.name);
        table.cell(col.accuracy, 4);
        for (size_t s = 0; s < scales.size(); ++s)
            table.cell(col.perScale[s].ipc(), 3);
    }
    std::printf("%s\n", table.render().c_str());

    auto column = [&](const std::string &name) {
        const auto it = std::find_if(
            study.columns.begin(), study.columns.end(),
            [&](const IpcColumn &col) { return col.name == name; });
        BPNSP_ASSERT(it != study.columns.end(), "no column ", name);
        return static_cast<size_t>(it - study.columns.begin());
    };
    const size_t tage = column("tage-sc-l-8KB");
    const size_t perfect = column("perfect");
    for (size_t s = 0; s < scales.size(); ++s) {
        std::printf("at %ux, perfect prediction is worth +%.1f%% IPC "
                    "over tage-sc-l-8KB\n",
                    scales[s],
                    (study.ipc(perfect, s) / study.ipc(tage, s) - 1.0) *
                        100.0);
    }
    return 0;
}
