/**
 * @file
 * Deterministic, seedable fault injection for robustness testing.
 *
 * A *failpoint* is a named site in production code (today: the trace
 * store's filesystem I/O) that asks "should I fail now?" before doing
 * the real work. With no fault spec active the question costs one
 * relaxed atomic load, so instrumented hot paths stay benchmark-clean;
 * with a spec active, each named point fires according to its clause.
 *
 * Activation is always explicit: `--faults=SPEC` on every
 * OptionParser binary (wired through faultsim::configureFromOptions),
 * or faultsim::configure() from a test.
 *
 * Spec grammar (comma-separated clauses):
 *
 *   SPEC   := clause (',' clause)*
 *   clause := 'seed=' UINT
 *           | POINT ['@' PROB] ['*' MAXFIRES] ['+' SKIP]
 *
 *   POINT     dotted failpoint name, e.g. tracestore.write.enospc
 *   PROB      fire probability per evaluation in (0, 1], default 1
 *   MAXFIRES  stop firing after this many fires, default unlimited
 *   SKIP      never fire on the first SKIP evaluations, default 0
 *
 * Examples:
 *   tracestore.write.enospc                fail every store write
 *   tracestore.read.bitflip@0.01           flip a bit in 1% of reads
 *   tracestore.write.crash+3*1             crash on the 4th write only
 *   seed=7,tracestore.read.bitflip@0.5*2   seeded, at most two flips
 *
 * Determinism: every point draws from its own RNG, seeded from the
 * global seed XOR a hash of the point name, so a given (seed, spec)
 * reproduces the exact same failure schedule regardless of how other
 * points interleave. Fault payloads (which bit to flip, how many bytes
 * of a torn write survive) come from payloadDraw() on the same stream.
 *
 * Failpoints wrapping trace store I/O (see DESIGN.md "Robustness"):
 *   tracestore.write.short    one partial fwrite, then resumed
 *   tracestore.write.eintr    one zero-byte (interrupted) fwrite
 *   tracestore.write.enospc   unrecoverable out-of-space write error
 *   tracestore.write.crash    torn write, then the writer "dies"
 *   tracestore.write.fsync    durability barrier fails
 *   tracestore.read.bitflip   one bit of a chunk payload flips on read
 *   tracestore.read.eio       opening a store fails with an I/O error
 *   tracestore.cache.publish  entry rename into the cache fails
 *
 * Failpoints in the execution/supervision layer:
 *   campaign.journal.fsync    a journal append's durability barrier
 *                             fails (the append is rolled into the
 *                             cell's failure handling)
 *   campaign.cell.kill        the campaign process "dies" (SIGKILL
 *                             semantics: std::_Exit, nothing flushed
 *                             beyond what the journal already synced)
 *                             right after a cell's terminal append —
 *                             drives the kill/resume soak
 *   campaign.cell.fail        the cell's execution reports an
 *                             injected IoError, exercising the
 *                             retry-with-backoff and poisoned-cell
 *                             paths without real media damage
 *
 * Failpoints in the serving daemon (src/serve):
 *   serve.accept.fail         an accepted connection is immediately
 *                             closed (transient accept failure, as in
 *                             an accept-queue overflow under load)
 *   serve.frame.corrupt       one bit of an inbound frame payload
 *                             flips before checksum verification —
 *                             must surface as a CorruptData reply and
 *                             a closed connection, never a crash
 *   serve.worker.stall        a worker thread parks for a bounded,
 *                             cancellable moment before executing,
 *                             exercising queue backpressure and the
 *                             drain path under a slow pool
 */

#ifndef BPNSP_FAULTSIM_FAULTSIM_HPP
#define BPNSP_FAULTSIM_FAULTSIM_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace bpnsp {

class OptionParser;

namespace faultsim {

namespace detail {

/** True while any fault spec is active (read on every evaluation). */
extern std::atomic<bool> gActive;

/** The slow path of evaluate(): registry lookup + firing rules. */
bool evaluateSlow(const char *point);

} // namespace detail

/**
 * Should the named failpoint fire now? The caller then simulates the
 * corresponding failure. Free when no spec is active.
 */
inline bool
evaluate(const char *point)
{
    return detail::gActive.load(std::memory_order_relaxed) &&
           detail::evaluateSlow(point);
}

/**
 * Parse and activate a fault spec (replacing any previous one). An
 * empty spec deactivates injection. Returns InvalidArgument on bad
 * grammar, leaving injection deactivated.
 */
Status configure(const std::string &spec);

/**
 * Wire the standard --faults option (pre-registered by every
 * OptionParser); fatal() on a malformed spec, since a typo'd campaign
 * should not silently run fault-free.
 * Also stamps the active spec into the obs run manifest ("faults").
 */
void configureFromOptions(const OptionParser &opts);

/** Deactivate injection and clear all per-point state (tests). */
void reset();

/** True when a spec is active. */
bool active();

/** The active spec string ("" when inactive). */
std::string activeSpec();

/** Times a point was evaluated since configure()/reset(). */
uint64_t evaluatedCount(const std::string &point);

/** Times a point fired since configure()/reset(). */
uint64_t firedCount(const std::string &point);

/** Total fires across all points (mirrors obs "faultsim.injected"). */
uint64_t firedTotal();

/**
 * Deterministic payload value for the point's current fault (bit
 * position, torn-write length, ...). Draws from the point's seeded
 * stream, so fault *content* is as reproducible as fault timing.
 */
uint64_t payloadDraw(const char *point);

/** Per-point fired counts, sorted by name (for reports and tests). */
std::vector<std::pair<std::string, uint64_t>> firedCounts();

} // namespace faultsim
} // namespace bpnsp

#endif // BPNSP_FAULTSIM_FAULTSIM_HPP
