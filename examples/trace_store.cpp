/**
 * @file
 * Trace store tour: capture a workload execution into the compact
 * on-disk format, replay a slice of it by seeking through the footer
 * index, and replay the whole trace into an analysis sink. The raw
 * building blocks behind bpnsp_served's trace corpus.
 *
 * Usage: trace_store [--workload=mcf_like] [--instructions=1000000]
 *                    [--path=/tmp/bpnsp_demo.bpt]
 */

#include <cstdio>

#include "core/runner.hpp"
#include "tracestore/store.hpp"
#include "util/logging.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/report.hpp"
#include "util/options.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

int
main(int argc, char **argv)
{
    OptionParser opts("Capture, seek, and replay a trace store.");
    opts.addString("workload", "mcf_like", "workload name");
    opts.addInt("instructions", 1000000, "trace length");
    opts.addString("path", "/tmp/bpnsp_demo.bpt", "store file path");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    const Workload w = findWorkload(opts.getString("workload"));
    const uint64_t instructions =
        static_cast<uint64_t>(opts.getInt("instructions"));
    const std::string path = opts.getString("path");

    // 1. Capture: the writer is just another TraceSink.
    {
        TraceStoreWriter writer(path);
        runTrace(w.build(0), {&writer}, instructions);
        std::printf("captured %llu records to %s\n",
                    static_cast<unsigned long long>(writer.count()),
                    path.c_str());
    }

    // 2. Open and seek: the footer index gives O(1) access to any
    //    record range without touching the rest of the file.
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    if (reader == nullptr)
        fatal("open failed: ", st.str());
    std::printf("store holds %llu records in %llu chunks\n",
                static_cast<unsigned long long>(reader->count()),
                static_cast<unsigned long long>(reader->numChunks()));

    VectorSink middle;
    const uint64_t mid = reader->count() / 2;
    if (st = reader->replayRange(mid, 5, middle); !st.ok())
        fatal("seek replay failed: ", st.str());
    std::printf("records [%llu..%llu): first ip 0x%llx\n",
                static_cast<unsigned long long>(mid),
                static_cast<unsigned long long>(mid + 5),
                static_cast<unsigned long long>(middle.get()[0].ip));

    // 3. Full replay: the reader drives any TraceSink, like the VM.
    CountingSink counter;
    if (st = reader->replay(counter, 0); !st.ok())
        fatal("replay failed: ", st.str());
    const uint64_t branches = counter.condBranchCount();
    std::printf("replayed %llu records, %llu conditional branches "
                "(%.1f%% taken)\n",
                static_cast<unsigned long long>(counter.totalCount()),
                static_cast<unsigned long long>(branches),
                branches ? 100.0 * static_cast<double>(
                                       counter.takenCount()) /
                               static_cast<double>(branches)
                         : 0.0);
    std::remove(path.c_str());
    return 0;
}
