/**
 * @file
 * The benchmark's side of the serving daemon: starting and stopping a
 * single-process bpnsp_served child, reading its Stats counters,
 * answering the same requests in-process (the independent path every
 * reply is checked against), and the sequential probe that splits a
 * client's latency into execution and serving overhead.
 */

#ifndef PERFBENCH_SERVE_HPP
#define PERFBENCH_SERVE_HPP

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "tracestore/store.hpp"
#include "util/status.hpp"

namespace perfbench {

/** A running single-process bpnsp_served; stopped on destruction. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Start `binary` serving the corpus directory `corpus` on the
     * UNIX socket `socket` with `threads` workers, and wait until it
     * answers a Ping. Output goes to `log`.
     */
    bpnsp::Status start(const std::string &binary,
                        const std::string &corpus,
                        const std::string &socket, unsigned threads,
                        const std::string &log);

    /** SIGTERM, then wait for the process to exit (SIGKILL on hang). */
    void stop();

    pid_t pid() const { return child; }

  private:
    pid_t child = -1;
};

/** The daemon's counters the benchmark reads from the Stats op. */
struct ServeCounters
{
    uint64_t chunkHits = 0;
    uint64_t chunkMisses = 0;
    uint64_t accepted = 0;
    uint64_t batches = 0;
};

bpnsp::Status readServeCounters(bpnsp::serve::ServeClient &client,
                                ServeCounters *out);

/** A Simulate request over records [first, first + count). */
bpnsp::serve::ServeRequest simulateRequest(const std::string &workload,
                                           uint32_t input,
                                           uint64_t instructions,
                                           const std::string &predictor,
                                           uint64_t first,
                                           uint64_t count);

/** A BranchStats request returning the top `top_k` rows. */
bpnsp::serve::ServeRequest branchStatsRequest(
    const std::string &workload, uint32_t input, uint64_t instructions,
    const std::string &predictor, uint64_t slice_length,
    uint32_t top_k);

/**
 * Answers Simulate and BranchStats requests in this process over the
 * daemon's own corpus files, the way the daemon computes them, and
 * memoizes each distinct request's answer.
 */
class InProcessServer
{
  public:
    explicit InProcessServer(std::string corpus_dir)
        : corpus(std::move(corpus_dir))
    {
    }

    /** The reply fields a correct daemon must reproduce. */
    const bpnsp::serve::ServeReply &
    expected(const bpnsp::serve::ServeRequest &request);

    /** Execute without memoization; returns host milliseconds. */
    double executeMs(const bpnsp::serve::ServeRequest &request,
                     bpnsp::serve::ServeReply *reply);

  private:
    const bpnsp::TraceStoreReader &
    reader(const bpnsp::serve::ServeRequest &request);

    using Key = std::tuple<uint16_t, std::string, uint32_t, uint64_t,
                           std::string, uint64_t, uint64_t, uint32_t>;

    std::string corpus;
    std::map<std::string, std::unique_ptr<bpnsp::TraceStoreReader>>
        readers;
    std::map<Key, bpnsp::serve::ServeReply> memo;
};

/** True when the reply carries exactly the expected results. */
bool sameResults(const bpnsp::serve::ServeReply &got,
                 const bpnsp::serve::ServeReply &want);

/** Serving-layer split of one request class (medians, ms). */
struct ServeLayerSplit
{
    double execMs = 0.0;       ///< in-process execution
    double overheadMs = 0.0;   ///< client latency minus execMs
    uint64_t samples = 0;
};

/**
 * Send each request in turn over `client` (one in flight, so no
 * queueing), and time the same request in-process. Replies are
 * checked against the in-process answer; mismatches and failures are
 * added to `failed`.
 */
ServeLayerSplit
probeServeLayer(bpnsp::serve::ServeClient &client, InProcessServer &local,
                const std::vector<bpnsp::serve::ServeRequest> &requests,
                uint64_t *failed);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HPP
