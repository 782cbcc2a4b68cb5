/**
 * @file
 * Frontend scaling study: how much IPC the fetch front end — BTB
 * misses, RAS overflow/underflow, and indirect-target mispredicts —
 * costs on top of direction mispredicts, and how that cost scales
 * with pipeline capacity.
 *
 * Companion to the paper's Fig. 1/5 pipeline-scaling studies: those
 * charge only direction flushes, this one turns the decoupled
 * frontend model on beside an identical off-core and measures the
 * gap. Expected shape (Sec. II-B of the paper, and the reason
 * frontends matter for LCF code): the large-code-footprint workloads
 * — sprawling call graphs that thrash the BTB and RAS, virtual
 * dispatch that stresses ITTAGE — lose measurably more IPC to the
 * frontend than the small-footprint SPEC-like loops do.
 *
 * Emits per-workload target-MPKI, per-class target-mispredict
 * breakdowns, and IPC with the frontend off/on at each pipeline
 * scale, as a table and as bench.frontend.* gauges for the
 * --metrics-out run report (committed as BENCH_frontend.json).
 */

#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common.hpp"

#include "analysis/target_stats.hpp"
#include "frontend/frontend.hpp"
#include "workloads/lcf_suite.hpp"

using namespace bpnsp;
using namespace bpnsp::bench;

namespace {

/** Which headline mean a workload contributes to. */
enum class StudyGroup
{
    Lcf,       ///< large-code-footprint application
    Spec,      ///< SPEC-like loop kernel
    Contrast,  ///< shown in the table, excluded from the means
};

struct WorkloadStudy
{
    std::string name;
    StudyGroup group = StudyGroup::Spec;
    bool lcf = false;
    uint64_t instructions = 0;
    uint64_t targetMispredicts = 0;
    uint64_t btbMisses = 0;
    uint64_t ftqStallCycles = 0;
    std::vector<TargetClassRow> perClass;
    std::vector<double> ipcOff;   ///< one per scale
    std::vector<double> ipcOn;

    double
    targetMpki() const
    {
        if (instructions == 0)
            return 0.0;
        return 1000.0 * static_cast<double>(targetMispredicts) /
               static_cast<double>(instructions);
    }

    /** Fractional IPC lost to the frontend at scale index s. */
    double
    lossAt(size_t s) const
    {
        if (ipcOff[s] <= 0.0)
            return 0.0;
        return 1.0 - ipcOn[s] / ipcOff[s];
    }
};

/**
 * One trace pass per workload: a TAGE-SC-L direction predictor, the
 * default frontend, and an off and an on core stepping every scale. Sink
 * order is load-bearing — PredictorSim and FrontendModel must see
 * each record before the memory sides and cores that read their
 * per-record latches, and a memory side before its cores.
 */
WorkloadStudy
studyWorkload(const Workload &workload, StudyGroup group,
              uint64_t instructions,
              const std::vector<unsigned> &scales)
{
    WorkloadStudy study;
    study.name = workload.name;
    study.group = group;
    study.lcf = workload.lcf;

    auto predictor = makePredictor("tage-sc-l-8KB");
    PredictorSim sim(*predictor, /*collect_per_branch=*/false);
    FrontendModel fe((FrontendConfig()));

    // One memory side per frontend setting: a target flush changes the
    // I-cache access sequence, so the off and on cores cannot share.
    MemorySide memOff(sim);
    MemorySide memOn(sim, &fe);

    CoreModel coresOff(CoreConfig::skylake(), scales, memOff);
    CoreModel coresOn(CoreConfig::skylake(), scales, memOn);

    study.instructions = runWorkloadTrace(
        workload, 0, {&sim, &fe, &memOff, &memOn, &coresOff, &coresOn},
        instructions);
    study.targetMispredicts = fe.targetMispredicts();
    study.btbMisses = fe.btbMisses();
    study.ftqStallCycles = fe.ftqStallCycles();
    study.perClass = targetClassRows(fe);
    for (size_t s = 0; s < scales.size(); ++s) {
        study.ipcOff.push_back(coresOff.counters(s).ipc());
        study.ipcOn.push_back(coresOn.counters(s).ipc());
    }
    return study;
}

/**
 * A frontend-faithful variant of a Table II LCF preset: same library
 * size and call mix, but dispatch goes through a function-pointer
 * table (the virtual-call idiom of real C++ server/game binaries) and
 * a periodic recursive helper exceeds the 16-deep RAS. The frozen
 * presets keep direct dispatch so their historical instruction
 * streams stay byte-identical; these knobs exist precisely for this
 * study.
 */
Workload
lcfFrontendVariant(const std::string &name, LcfAppParams params)
{
    params.name = name;
    params.indirectDispatch = true;
    params.recursionDepth = 24;
    Workload w;
    w.name = name;
    w.lcf = true;
    w.inputs = makeInputs(name, 1);
    w.builder = [params](uint64_t seed) {
        return buildLcfApp(params, seed);
    };
    return w;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts(
        "Frontend scaling: IPC cost of BTB/RAS/ITTAGE target "
        "mispredicts and fetch stalls vs pipeline scale.");
    opts.addInt("instructions", 2000000,
                "trace length per workload (pre-scale)");
    opts.addString("workloads", "",
                   "comma list restricting the study set (default: "
                   "all seven)");
    const double scale = parseScale(opts, argc, argv);
    const uint64_t instructions = static_cast<uint64_t>(
        static_cast<double>(opts.getInt("instructions")) * scale);

    banner("IPC with the frontend model off vs on",
           "the Sec. II-B frontend discussion");
    const std::vector<unsigned> scales{1, 2, 4, 8};

    // Three LCF applications — gcc_like/game presets with their
    // virtual-dispatch + deep-recursion knobs enabled (real LCF
    // binaries dispatch through vtables; the frozen direct-dispatch
    // presets are shown as a contrast row) — against three SPEC-like
    // kernels. interp_like is indirect-heavy but small-footprint, the
    // classic interpreter-dispatch stress case.
    std::vector<std::pair<Workload, StudyGroup>> plan;
    plan.emplace_back(findWorkload("gcc_like"), StudyGroup::Contrast);
    plan.emplace_back(lcfFrontendVariant("gcc_like_fe", gccLikeParams()),
                      StudyGroup::Lcf);
    plan.emplace_back(lcfFrontendVariant("game_fe", gameParams()),
                      StudyGroup::Lcf);
    plan.emplace_back(findWorkload("vcall"), StudyGroup::Lcf);
    plan.emplace_back(findWorkload("mcf_like"), StudyGroup::Spec);
    plan.emplace_back(findWorkload("xz_like"), StudyGroup::Spec);
    plan.emplace_back(findWorkload("interp_like"), StudyGroup::Spec);

    // --workloads restricts the study set (CI runs two under ASan).
    const std::string only = opts.getString("workloads");
    if (!only.empty()) {
        std::unordered_set<std::string> keep;
        std::istringstream iss(only);
        for (std::string name; std::getline(iss, name, ',');)
            if (!name.empty())
                keep.insert(name);
        std::erase_if(plan, [&keep](const auto &entry) {
            return keep.count(entry.first.name) == 0;
        });
        if (plan.empty()) {
            std::fprintf(stderr, "no study workload matches '%s'\n",
                         only.c_str());
            return 1;
        }
    }

    std::vector<WorkloadStudy> studies;
    for (const auto &[workload, group] : plan) {
        studies.push_back(
            studyWorkload(workload, group, instructions, scales));
        std::fprintf(stderr, "  %s done\n", workload.name.c_str());
    }

    TextTable table(
        "IPC, frontend off -> on (TAGE-SC-L 8KB directions, default "
        "btb512x4-ras16-itt9-ftq16 frontend)");
    table.setHeader({"workload", "tgt-MPKI", "1x off", "1x on",
                     "8x off", "8x on", "loss@8x"});
    for (const WorkloadStudy &s : studies) {
        table.beginRow();
        table.cell(s.name + (s.lcf ? " (lcf)" : ""));
        table.cell(s.targetMpki(), 3);
        table.cell(s.ipcOff.front(), 3);
        table.cell(s.ipcOn.front(), 3);
        table.cell(s.ipcOff.back(), 3);
        table.cell(s.ipcOn.back(), 3);
        table.cell(s.lossAt(scales.size() - 1) * 100.0, 1);
    }
    emit(table);

    std::printf("Per-class target mispredicts:\n");
    for (const WorkloadStudy &s : studies) {
        std::printf("  %s:", s.name.c_str());
        for (const TargetClassRow &row : s.perClass)
            std::printf(" %s=%llu/%llu",
                        instrClassName(row.cls),
                        static_cast<unsigned long long>(
                            row.targetMispreds),
                        static_cast<unsigned long long>(row.execs));
        std::printf("\n");
    }

    // The headline: LCF loses more of its IPC to the frontend than
    // SPEC-like code at every scale. The contrast row (direct-dispatch
    // gcc_like) is excluded from both means — it exists to show the
    // loss comes from the indirect/return idioms, not from calls per
    // se. Skipped when --workloads filtered either group away.
    for (const size_t s : {size_t{0}, scales.size() - 1}) {
        std::vector<double> lcfLoss, specLoss;
        for (const WorkloadStudy &st : studies) {
            if (st.group == StudyGroup::Lcf)
                lcfLoss.push_back(st.lossAt(s));
            else if (st.group == StudyGroup::Spec)
                specLoss.push_back(st.lossAt(s));
        }
        if (lcfLoss.empty() || specLoss.empty())
            break;
        std::printf("frontend IPC loss at %ux: LCF %.1f%%, SPEC-like "
                    "%.1f%%\n",
                    scales[s], mean(lcfLoss) * 100.0,
                    mean(specLoss) * 100.0);
    }

    // Gauges for the BENCH_frontend.json run report.
    for (const WorkloadStudy &s : studies) {
        const std::string prefix = "bench.frontend." + s.name + ".";
        obs::gauge(prefix + "target_mpki").set(s.targetMpki());
        obs::gauge(prefix + "btb_misses")
            .set(static_cast<double>(s.btbMisses));
        obs::gauge(prefix + "ftq_stall_cycles")
            .set(static_cast<double>(s.ftqStallCycles));
        for (size_t i = 0; i < scales.size(); ++i) {
            const std::string at = std::to_string(scales[i]) + "x";
            obs::gauge(prefix + "ipc_off_" + at).set(s.ipcOff[i]);
            obs::gauge(prefix + "ipc_on_" + at).set(s.ipcOn[i]);
            obs::gauge(prefix + "ipc_loss_" + at).set(s.lossAt(i));
        }
        for (const TargetClassRow &row : s.perClass)
            obs::gauge(prefix + "target_mispreds." +
                       instrClassName(row.cls))
                .set(static_cast<double>(row.targetMispreds));
    }
    return 0;
}
