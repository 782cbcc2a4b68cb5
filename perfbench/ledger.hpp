/**
 * @file
 * The per-layer cost ledger: each library layer timed alone, from
 * outside, over the same input as the workload that asks for it.
 *
 * Per-record layers replay records captured once into memory through a
 * tight loop and are timed per block (one clock pair around the whole
 * pass, the median of several passes), so the timer adds nothing
 * measurable to the layer it times; obs.timer_ns reports its cost per
 * call as the bound. A consumer that needs a predictor outcome (the
 * core model, the sliced statistics) is timed together with its
 * predictor and the predictor's own time is subtracted.
 */

#ifndef PERFBENCH_LEDGER_HPP
#define PERFBENCH_LEDGER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/** The TAGE-SC-L storage points of the Fig. 7 sweep. */
extern const std::vector<std::string> kTageSizes;

/** The Fig. 7 pipeline scales. */
extern const std::vector<unsigned> kPipelineScales;

/** Which input the ledger measures. */
struct LedgerInput
{
    std::string workload;
    size_t inputIdx = 0;
    uint64_t instructions = 0;
    uint64_t sliceLength = 0;    ///< analysis slice size
};

/** Costs by name; `metrics` holds the ones printed. */
struct Ledger
{
    std::vector<Metric> metrics;
    std::map<std::string, double> cost;   ///< every measured cost
    uint64_t records = 0;
    uint64_t condBranches = 0;

    /** A measured cost; fatal when the name was never measured. */
    double at(const std::string &name) const;

    /** Record a cost and print it as a per-layer metric. */
    void put(const std::string &name, double value,
             const std::string &unit, uint64_t samples);
};

/** Measure every in-process layer over the input. */
Ledger measureLedger(const LedgerInput &input);

/**
 * The serving-layer entries of the ledger, measured by starting a
 * daemon over one key of the same input and probing it one request at
 * a time, with Simulate slices and whole-trace BranchStats. Reply
 * mismatches and failures are added to `result`.
 */
void measureServeLedger(const RunConfig &cfg, const LedgerInput &input,
                        Ledger *ledger, RunResult *result);

/**
 * Print the per-layer metrics of a traced run: the ledger, the
 * workload's layer coverage (modelled ns / measured ns of one unit of
 * work) and its tracing overhead (1 - traced / untraced throughput).
 */
void reportLayers(const Ledger &ledger, double coverage,
                  double trace_overhead, RunResult *result);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HPP
