#include "tracestore/cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "tracestore/format.hpp"
#include "util/fsutil.hpp"
#include "util/logging.hpp"

namespace fs = std::filesystem;

namespace bpnsp {
namespace {

// Distinguishes staging files of concurrent cold runs *within* one
// process (threads, repeated misses); the pid component handles
// cross-process uniqueness and GC.
std::atomic<uint64_t> gStagingSeq{0};

constexpr const char *kStagingInfix = ".staging.";

/**
 * Parse the owner pid out of "<digest>.staging.<pid>.<seq>". Returns
 * -1 when the name does not match (never remove what we don't
 * understand).
 */
long
stagingOwnerPid(const std::string &name)
{
    const size_t infix = name.find(kStagingInfix);
    if (infix == std::string::npos)
        return -1;
    const size_t pidBegin = infix + std::string(kStagingInfix).size();
    const size_t pidEnd = name.find('.', pidBegin);
    if (pidEnd == std::string::npos || pidEnd == pidBegin)
        return -1;
    char *end = nullptr;
    const long pid =
        std::strtol(name.c_str() + pidBegin, &end, 10);
    if (end != name.c_str() + pidEnd || pid <= 0)
        return -1;
    return pid;
}

} // namespace

std::string
traceCacheDigest(const TraceCacheKey &key)
{
    // Canonical key string; '\n' separators keep fields unambiguous
    // (labels never contain newlines).
    const std::string canonical =
        key.workload + "\n" + key.input + "\n" +
        std::to_string(key.seed) + "\n" +
        std::to_string(key.instructions) + "\nstore-v" +
        std::to_string(kStoreVersion);
    const uint64_t hash = fnv1a(canonical);

    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

TraceCache::TraceCache(std::string directory)
    : root(std::move(directory))
{
    BPNSP_ASSERT(!root.empty());
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec)
        fatal("cannot create trace cache directory ", root, ": ",
              ec.message());
    collectOrphans();
}

void
TraceCache::collectOrphans() const
{
    static obs::Counter &orphans =
        obs::counter("tracestore.cache.orphans_collected");

    std::error_code ec;
    fs::directory_iterator it(root, ec);
    if (ec)
        return;
    for (const fs::directory_entry &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();

        if (name.find(kStagingInfix) == std::string::npos)
            continue;
        const long pid = stagingOwnerPid(name);
        if (pid > 0 && processAlive(static_cast<pid_t>(pid)))
            continue;   // a live run is still recording into it
        if (fs::remove(entry.path(), ec)) {
            orphans.inc();
            inform("collected orphaned trace cache staging file ", name,
                   " (owner pid ", pid, " is gone)");
        }
    }
}

std::string
TraceCache::entryPath(const TraceCacheKey &key) const
{
    return root + "/" + traceCacheDigest(key) + ".bpt";
}

bool
TraceCache::contains(const TraceCacheKey &key) const
{
    std::error_code ec;
    return fs::is_regular_file(entryPath(key), ec);
}

std::string
TraceCache::stagingPath(const TraceCacheKey &key) const
{
    return root + "/" + traceCacheDigest(key) + kStagingInfix +
           std::to_string(static_cast<long>(::getpid())) + "." +
           std::to_string(
               gStagingSeq.fetch_add(1, std::memory_order_relaxed));
}

Status
TraceCache::publish(const std::string &staging,
                    const TraceCacheKey &key) const
{
    static obs::Counter &publishFailures =
        obs::counter("tracestore.cache.publish_failures");

    // Belt-and-braces durability: the writer fsyncs on finish, but
    // publish() is the commit point, so it re-fsyncs the staging bytes
    // itself rather than trusting every producer to have done so.
    Status st;
    if (faultsim::evaluate("tracestore.cache.publish")) {
        st = Status::ioError(
            "injected fault: publish of " + entryPath(key) + " failed");
    } else {
        const int fd = ::open(staging.c_str(), O_RDONLY);
        if (fd < 0) {
            st = Status::ioError("cannot open staging file " + staging +
                                 " for publish");
        } else {
            if (::fsync(fd) != 0)
                st = Status::ioError("fsync of staging file " +
                                     staging + " failed");
            ::close(fd);
        }
        if (st.ok())
            st = atomicPublishFile(staging, entryPath(key));
    }
    if (!st.ok())
        publishFailures.inc();
    return st;
}

std::unique_ptr<TraceStoreReader>
TraceCache::openVerified(const TraceCacheKey &key, Status *status) const
{
    std::unique_ptr<TraceStoreReader> reader =
        TraceStoreReader::open(entryPath(key), status);
    if (reader != nullptr) {
        if (reader->count() != key.instructions)
            *status = Status::corruptData(
                "holds " + std::to_string(reader->count()) +
                " records, want " + std::to_string(key.instructions));
        else
            *status = reader->verify();
        if (status->ok())
            return reader;
    }
    // Quarantine is for damage only: a cancellation, a deadline or an
    // I/O error says nothing about the bytes on disk.
    if (status->code() == StatusCode::CorruptData)
        quarantine(key, status->str());
    return nullptr;
}

void
TraceCache::evict(const TraceCacheKey &key) const
{
    static obs::Counter &evictions =
        obs::counter("tracestore.cache.evictions");
    std::error_code ec;
    if (fs::remove(entryPath(key), ec))
        evictions.inc();
}

void
TraceCache::quarantine(const TraceCacheKey &key,
                       const std::string &reason) const
{
    static obs::Counter &quarantined =
        obs::counter("tracestore.cache.quarantined");

    const std::string base = root + "/" + traceCacheDigest(key);
    const std::string entry = entryPath(key);

    std::error_code ec;
    if (!fs::exists(entry, ec)) {
        warn("trace cache entry ", entry,
             " vanished before quarantine (", reason, ")");
        return;
    }

    auto slotPath = [&](int slot) {
        return base + ".quarantine." + std::to_string(slot);
    };

    int slot = 0;
    while (slot < kQuarantineSlots && fs::exists(slotPath(slot), ec))
        ++slot;
    if (slot == kQuarantineSlots) {
        // All slots taken: drop the oldest and shift the rest down so
        // slot numbering stays in arrival order.
        fs::remove(slotPath(0), ec);
        for (int s = 1; s < kQuarantineSlots; ++s)
            fs::rename(slotPath(s), slotPath(s - 1), ec);
        slot = kQuarantineSlots - 1;
    }

    fs::rename(entry, slotPath(slot), ec);
    if (ec) {
        // Rename failed (e.g. cross-device oddity): fall back to plain
        // eviction so the unusable entry cannot be served again.
        warn("cannot quarantine trace cache entry ", entry, ": ",
             ec.message(), "; evicting instead");
        evict(key);
    } else {
        warn("quarantined unusable trace cache entry ", entry, " -> ",
             slotPath(slot), " (", reason,
             "); regenerating from live execution");
    }
    quarantined.inc();
}

} // namespace bpnsp
