/**
 * @file
 * Fig. 5: the Fig. 1 study repeated on the large-code-footprint
 * suite. Paper finding: the Perfect-H2Ps curve captures a much
 * smaller share of the opportunity (37.8% at 1x, dropping to 33.7% at
 * 32x) — rare branches, not H2Ps, dominate LCF losses.
 */

#include "common.hpp"
#include "util/stats.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

int
main(int argc, char **argv)
{
    OptionParser opts("Fig. 5: LCF IPC vs pipeline scaling.");
    opts.addInt("instructions", 2000000,
                "trace length per application (pre-scale)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("LCF IPC vs pipeline capacity scaling", "Fig. 5");
    const std::vector<unsigned> scales{1, 2, 4, 8, 16, 32};

    std::vector<IpcStudyResult> studies;
    for (const Workload &w : lcfSuite()) {
        studies.push_back(
            fourCurveStudy(w, 0, instructions, scales));
        std::fprintf(stderr, "  %s done\n", w.name.c_str());
    }

    TextTable table = relativeIpcTable(
        "IPC relative to Skylake 1x + TAGE-SC-L 8KB (geomean over LCF "
        "suite)",
        studies, scales);
    emit(table);

    for (size_t s : {size_t{0}, size_t{5}}) {
        std::vector<double> share;
        for (const auto &study : studies) {
            const double gap = study.ipc(3, s) - study.ipc(0, s);
            if (gap > 1e-9) {
                share.push_back(
                    (study.ipc(2, s) - study.ipc(0, s)) / gap);
            }
        }
        std::printf("Perfect-H2Ps captures %.1f%% of the opportunity "
                    "at %ux (paper: 37.8%% at 1x, 33.7%% at 32x)\n",
                    mean(share) * 100.0, scales[s]);
    }
    return 0;
}
