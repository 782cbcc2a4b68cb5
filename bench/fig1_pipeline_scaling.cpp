/**
 * @file
 * Fig. 1: single-threaded IPC of the SPEC-like suite, relative to the
 * Skylake 1x / TAGE-SC-L 8KB baseline, as pipeline capacity scales
 * 1x-32x, under four predictors (TAGE-SC-L 8KB/64KB, Perfect H2Ps,
 * Perfect BP).
 *
 * Paper findings to reproduce: a large gap between TAGE-SC-L and
 * perfect prediction that *grows* with pipeline scale (18.5% at 1x,
 * 55.3% at 4x); 64KB barely better than 8KB; the Perfect-H2Ps curve
 * capturing most (75.7% at 1x) of the gap.
 */

#include "common.hpp"
#include "util/stats.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Fig. 1: SPEC-like IPC vs pipeline scaling.");
    opts.addInt("instructions", 2000000,
                "trace length per workload (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("SPEC-like IPC vs pipeline capacity scaling", "Fig. 1");
    const std::vector<unsigned> scales{1, 2, 4, 8, 16, 32};

    std::vector<IpcStudyResult> studies;
    for (const Workload &w : specSuite()) {
        studies.push_back(
            fourCurveStudy(w, 0, instructions, scales));
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }

    TextTable table = relativeIpcTable(
        "IPC relative to Skylake 1x + TAGE-SC-L 8KB (geomean over "
        "SPEC-like suite)",
        studies, scales);
    emit(table);

    // The headline numbers: IPC opportunity of perfect prediction.
    for (size_t s : {size_t{0}, size_t{2}}) {
        std::vector<double> gap;
        for (const auto &study : studies)
            gap.push_back(study.ipc(3, s) / study.ipc(0, s));
        std::printf("IPC opportunity from perfect BP at %ux: +%.1f%% "
                    "(paper: +18.5%% at 1x, +55.3%% at 4x)\n",
                    scales[s], (geomean(gap) - 1.0) * 100.0);
    }
    std::vector<double> h2p_share;
    for (const auto &study : studies) {
        const double gap = study.ipc(3, 0) - study.ipc(0, 0);
        if (gap > 1e-9) {
            h2p_share.push_back((study.ipc(2, 0) - study.ipc(0, 0)) /
                                gap);
        }
    }
    std::printf("Perfect-H2Ps captures %.1f%% of the 1x opportunity "
                "(paper: 75.7%%)\n",
                mean(h2p_share) * 100.0);
    return 0;
}
