/**
 * @file
 * Fig. 8: the fraction of the TAGE-SC-L IPC opportunity that remains
 * even after perfectly predicting every branch with more than 1,000
 * (blue) or 100 (orange) dynamic executions, on TAGE-SC-L 1024KB at
 * 1x pipeline scale. Paper findings: on average 34.3% of the
 * opportunity is due to branches with <1,000 executions and 27.4% to
 * branches with <100 — rare branches supply too few statistics to
 * learn.
 */

#include "common.hpp"
#include "util/stats.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Fig. 8: opportunity remaining from rare "
                      "branches.");
    opts.addInt("instructions", 2000000,
                "trace length per application (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("IPC opportunity remaining after perfecting hot branches",
           "Fig. 8");

    // Execution-count thresholds scale with the trace length exactly
    // like the H2P criteria (paper thresholds assume 30M traces).
    const double factor = static_cast<double>(instructions) / 30000000.0;
    const uint64_t thr_hi = std::max<uint64_t>(
        2, static_cast<uint64_t>(1000 * factor));
    const uint64_t thr_lo = std::max<uint64_t>(
        1, static_cast<uint64_t>(100 * factor));

    TextTable table("Fraction of TAGE-SC-L 1024KB IPC opportunity "
                    "remaining (1x pipeline)");
    table.setHeader({"application",
                     "perfect >" + std::to_string(thr_hi) + " execs",
                     "perfect >" + std::to_string(thr_lo) + " execs"});

    std::vector<double> rem_hi;
    std::vector<double> rem_lo;
    for (const Workload &w : lcfSuite()) {
        // Profile execution counts first.
        auto profile_bp = makePredictor("tage-sc-l-1024KB");
        PredictorSim profile(*profile_bp);
        runWorkloadTrace(w, 0, {&profile}, instructions);
        std::unordered_set<uint64_t> hot_hi;
        std::unordered_set<uint64_t> hot_lo;
        for (const auto &[ip, c] : profile.perBranch()) {
            if (c.execs > thr_hi)
                hot_hi.insert(ip);
            if (c.execs > thr_lo)
                hot_lo.insert(ip);
        }

        std::vector<std::pair<std::string,
                              std::unique_ptr<BranchPredictor>>> preds;
        preds.emplace_back("base", makePredictor("tage-sc-l-1024KB"));
        preds.emplace_back(
            "hi", std::make_unique<PerfectOnSetPredictor>(
                      makePredictor("tage-sc-l-1024KB"), hot_hi,
                      ">hi"));
        preds.emplace_back(
            "lo", std::make_unique<PerfectOnSetPredictor>(
                      makePredictor("tage-sc-l-1024KB"), hot_lo,
                      ">lo"));
        preds.emplace_back("perfect", makePredictor("perfect"));
        const IpcStudyResult study =
            runIpcStudy(w, 0, std::move(preds), {1}, instructions);

        const double base = study.ipc(0, 0);
        const double perfect = study.ipc(3, 0);
        const double gap = perfect - base;
        const double hi_left =
            gap > 1e-9 ? (perfect - study.ipc(1, 0)) / gap : 0.0;
        const double lo_left =
            gap > 1e-9 ? (perfect - study.ipc(2, 0)) / gap : 0.0;
        rem_hi.push_back(hi_left);
        rem_lo.push_back(lo_left);

        table.beginRow();
        table.cell(w.name);
        table.cell(hi_left, 3);
        table.cell(lo_left, 3);
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }
    table.beginRow();
    table.cell(std::string("MEAN"));
    table.cell(mean(rem_hi), 3);
    table.cell(mean(rem_lo), 3);
    emit(table);
    std::printf("Paper means: 34.3%% of the opportunity remains from "
                "branches below the higher threshold, 27.4%% below "
                "the lower one.\n");
    return 0;
}
