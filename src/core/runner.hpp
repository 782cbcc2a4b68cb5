/**
 * @file
 * Trace execution and characterization drivers — the top of the
 * library, tying workloads, predictors, the pipeline model, and the
 * analyses together. One VM execution can feed any number of consumers
 * through a fanout; an IPC study runs one such execution per predictor
 * column, each feeding every pipeline scale of that column, as
 * independent tasks on parallel threads.
 */

#ifndef BPNSP_CORE_RUNNER_HPP
#define BPNSP_CORE_RUNNER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/branch_stats.hpp"
#include "analysis/h2p.hpp"
#include "analysis/simpoint.hpp"
#include "bp/predictor.hpp"
#include "pipeline/core.hpp"
#include "trace/sink.hpp"
#include "vm/program.hpp"
#include "workloads/workload.hpp"

namespace bpnsp {

/**
 * Execute a program for a fixed number of instructions, streaming to
 * the given sinks (restart-on-halt is enabled so any budget works).
 * onEnd() is delivered to every sink.
 *
 * Honors cooperative cancellation: the delivery loop polls
 * currentCancelToken() (util/cancel.hpp) every ~256K instructions and
 * stops short when it fires — a campaign interrupt or per-cell
 * deadline never waits for the full budget. An early return smaller
 * than `instructions` signals the cut; consult the token's check()
 * for Cancelled vs DeadlineExceeded.
 *
 * @return instructions executed.
 */
uint64_t runTrace(const Program &program,
                  const std::vector<TraceSink *> &sinks,
                  uint64_t instructions);

/**
 * Configure the process-wide on-disk trace cache (see
 * tracestore/cache.hpp). An empty dir, the default, disables caching.
 * Batch binaries never set it; the serving daemon materializes its
 * corpus through it.
 */
void setTraceCacheDir(const std::string &dir);

/** The configured trace cache directory ("" when disabled). */
std::string traceCacheDir();

/**
 * The canonical workload-execution path: stream one workload input's
 * trace into the sinks, exactly as runTrace(w.build(input_idx), ...)
 * would, but routed through the trace cache when one is configured —
 * the first run records the trace to disk, subsequent runs replay it
 * (bit-identical, no VM execution). An entry is replayed only after
 * TraceCache::openVerified() accepts it; otherwise the trace is
 * regenerated from the VM and published over the key.
 *
 * Cancellation: both the VM and replay paths poll
 * currentCancelToken(). A cancelled run returns fewer instructions
 * than requested (possibly 0 when cancelled mid-replay) and leaves
 * the sinks holding a partial stream the caller must discard; the
 * cache entry itself is never quarantined for a cancellation.
 *
 * @return instructions delivered.
 */
uint64_t runWorkloadTrace(const Workload &workload, size_t input_idx,
                          const std::vector<TraceSink *> &sinks,
                          uint64_t instructions);

/** Configuration of a characterization pass (Table I methodology). */
struct CharacterizationConfig
{
    std::string predictor = "tage-sc-l-8KB";
    uint64_t sliceLength = 2000000;   ///< paper: 30M
    uint64_t numSlices = 6;           ///< paper: 333 (10B / 30M)
    bool collectPhases = true;        ///< run SimPoint clustering
};

/** Everything measured about one workload input. */
struct CharacterizationResult
{
    std::string workloadName;
    std::string inputLabel;
    std::unique_ptr<BranchPredictor> predictor;
    std::unique_ptr<SlicedBranchStats> stats;
    H2pCriteria criteria;         ///< scaled to the slice length
    H2pSummary h2p;
    SimpointResult phases;
    uint64_t staticBranchesInProgram = 0;

    /** Median per-slice distinct static branch count. */
    uint64_t medianStaticPerSlice() const;
};

/** Run the full characterization of one workload input. */
CharacterizationResult characterize(const Workload &workload,
                                    size_t input_idx,
                                    const CharacterizationConfig &config);

/** One predictor column of an IPC study (Figs. 1, 5, 7, 8). */
struct IpcColumn
{
    std::string name;                ///< predictor name
    std::vector<PerfCounters> perScale;
    double accuracy = 0.0;           ///< trace-wide accuracy
};

/** Result grid of an IPC study. */
struct IpcStudyResult
{
    std::vector<unsigned> scales;
    std::vector<IpcColumn> columns;

    /** IPC of (predictor index, scale index). */
    double
    ipc(size_t col, size_t scale_idx) const
    {
        return columns.at(col).perScale.at(scale_idx).ipc();
    }
};

/**
 * Run every (predictor, pipeline-scale) combination over one program.
 * Takes ownership of the predictors.
 *
 * Each predictor column is one task: it builds a PredictorSim, one
 * MemorySide and one CoreModel stepping every scale, and feeds them
 * from its own runTrace() of the program. Tasks run on up
 * to min(columns, hardware threads) threads, the caller among them,
 * under the caller's currentCancelToken(), so the predictors must not
 * share mutable state. Results are bit-identical to feeding every
 * column serially from one pass. A column that throws has its first
 * exception rethrown here once every thread is joined.
 */
IpcStudyResult runIpcStudy(
    const Program &program,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions);

/**
 * The same study over a workload input: builds the program, records
 * the workload, input and budget in the run manifest, and runs the
 * Program overload (always the VM, never the trace cache).
 */
IpcStudyResult runIpcStudy(
    const Workload &workload, size_t input_idx,
    std::vector<std::pair<std::string,
                          std::unique_ptr<BranchPredictor>>> predictors,
    const std::vector<unsigned> &scales, uint64_t instructions);

} // namespace bpnsp

#endif // BPNSP_CORE_RUNNER_HPP
