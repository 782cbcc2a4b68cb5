/**
 * @file
 * Content-addressed trace cache: maps (workload, input, scale, format
 * version) to a trace store file on disk. It is the serving daemon's
 * corpus (bpnsp_served --trace-cache) and the store behind
 * micro_trace_store and perfbench's trace_replay; batch binaries
 * execute the VM instead.
 *
 * Crash-safety and concurrency contract:
 *  - Entries are published with write-to-temp + fsync + atomic rename
 *    + directory fsync: a run records into a private staging file and
 *    renames it into place only after the trace is complete and
 *    durable, so crashes can never expose a partial entry under a
 *    valid key.
 *  - Two generators of one key need no lock. Each records into its own
 *    staging path (unique per pid and per call) while delivering the
 *    full live stream to its own sinks, and both publish the same
 *    bytes; the second rename replaces the first atomically.
 *  - Construction garbage-collects staging files of crashed runs.
 *  - openVerified() is the one rule for trusting an entry: damaged
 *    entries (CorruptData, wrong record count) are *quarantined*
 *    (renamed aside, bounded count) rather than silently deleted,
 *    preserving the evidence while the key regenerates; an I/O error
 *    or a cancelled verify leaves the entry in place.
 *
 * The format version participates in the digest, so a format bump
 * silently invalidates stale entries instead of misreading them.
 */

#ifndef BPNSP_TRACESTORE_CACHE_HPP
#define BPNSP_TRACESTORE_CACHE_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "tracestore/store.hpp"
#include "util/status.hpp"

namespace bpnsp {

/** Everything that determines a trace's identity. */
struct TraceCacheKey
{
    std::string workload;     ///< workload name, e.g. "mcf_like"
    std::string input;        ///< input label, e.g. "input-0"
    uint64_t seed = 0;        ///< input seed (drives program data)
    uint64_t instructions = 0; ///< trace length (the scale knob)
};

/**
 * Stable content address of a key: 16 hex digits over the canonical
 * key string, which includes kStoreVersion.
 */
std::string traceCacheDigest(const TraceCacheKey &key);

/** A directory of trace store files addressed by key digest. */
class TraceCache
{
  public:
    /**
     * Create the directory if needed (fatal() if that fails) and
     * garbage-collect staging files left by dead processes (counted
     * as tracestore.cache.orphans_collected).
     */
    explicit TraceCache(std::string directory);

    const std::string &dir() const { return root; }

    /** Path the entry for `key` lives at (whether or not it exists). */
    std::string entryPath(const TraceCacheKey &key) const;

    /** True when a published entry exists for `key`. */
    bool contains(const TraceCacheKey &key) const;

    /**
     * A fresh private staging path for recording `key`'s trace.
     * Unique per process AND per call, so concurrent cold runs
     * (processes or threads) never clobber each other's half-written
     * files. The
     * embedded pid lets a later construction GC the file if this
     * process dies.
     */
    std::string stagingPath(const TraceCacheKey &key) const;

    /**
     * Durably and atomically publish a finished staging file under
     * `key`: fsync the bytes, rename onto the entry path, fsync the
     * directory. IoError leaves the staging file for the caller to
     * discard; no reader can ever observe a partial entry.
     */
    Status publish(const std::string &staging,
                   const TraceCacheKey &key) const;

    /**
     * Open the published entry for `key` and check it before any
     * record is streamed: the record count must equal
     * key.instructions and verify() must pass. Returns the reader, or
     * nullptr with *status set. CorruptData and a wrong record count
     * quarantine the entry; Cancelled, DeadlineExceeded and IoError
     * leave it in place (a cancelled verify or a failed read says
     * nothing about the bytes).
     */
    std::unique_ptr<TraceStoreReader>
    openVerified(const TraceCacheKey &key, Status *status) const;

    /** Delete the entry for `key` if present. */
    void evict(const TraceCacheKey &key) const;

    /**
     * Move an unusable entry (truncated, corrupt, wrong length) aside
     * to a numbered .quarantine file instead of deleting it, so the
     * evidence survives for postmortems while the key regenerates.
     * Keeps at most kQuarantineSlots quarantined copies per key
     * (oldest evicted beyond that). Loud: warn()s with the reason and
     * bumps tracestore.cache.quarantined, so silent trace-store
     * corruption shows up in run reports instead of hiding behind
     * transparent regeneration.
     */
    void quarantine(const TraceCacheKey &key,
                    const std::string &reason) const;

    /** Quarantined copies kept per key before the oldest is dropped. */
    static constexpr int kQuarantineSlots = 4;

  private:
    std::string root;

    void collectOrphans() const;
};

} // namespace bpnsp

#endif // BPNSP_TRACESTORE_CACHE_HPP
