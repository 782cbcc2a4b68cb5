#include "tracestore/cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
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
constexpr const char *kLockSuffix = ".lock";

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

std::atomic<uint64_t> gLockTtlMs{UINT64_MAX};   // UINT64_MAX = unset

/**
 * Age of a lockfile's mtime heartbeat in milliseconds; 0 when the
 * file cannot be stat'ed (vanished — treat as fresh, the acquire
 * retry will sort it out) or when the clock reads earlier than the
 * mtime (skew).
 */
uint64_t
lockAgeMs(const std::string &path)
{
    struct stat sb;
    if (::stat(path.c_str(), &sb) != 0)
        return 0;
    struct timespec now;
    if (::clock_gettime(CLOCK_REALTIME, &now) != 0)
        return 0;
    const int64_t ms =
        (static_cast<int64_t>(now.tv_sec) - sb.st_mtim.tv_sec) * 1000 +
        (now.tv_nsec - sb.st_mtim.tv_nsec) / 1000000;
    return ms > 0 ? static_cast<uint64_t>(ms) : 0;
}

/**
 * Read the owner pid stored inside a lockfile. Returns -1 on any
 * problem (unreadable, empty, garbage) — an unreadable lock is treated
 * as stale, since a live owner always writes its pid before relying on
 * the lock.
 */
long
lockOwnerPid(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return -1;
    char buf[32] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    if (n == 0)
        return -1;
    char *end = nullptr;
    const long pid = std::strtol(buf, &end, 10);
    if (end == buf || pid <= 0)
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
    static obs::Counter &staleLocks =
        obs::counter("tracestore.cache.stale_locks_broken");

    std::error_code ec;
    fs::directory_iterator it(root, ec);
    if (ec)
        return;
    for (const fs::directory_entry &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();

        if (name.find(kStagingInfix) != std::string::npos) {
            const long pid = stagingOwnerPid(name);
            if (pid > 0 && processAlive(static_cast<pid_t>(pid)))
                continue;   // a live run is still recording into it
            if (fs::remove(entry.path(), ec)) {
                orphans.inc();
                inform("collected orphaned trace cache staging file ",
                       name, " (owner pid ", pid, " is gone)");
            }
            continue;
        }

        if (name.size() > std::string(kLockSuffix).size() &&
            name.rfind(kLockSuffix) ==
                name.size() - std::string(kLockSuffix).size()) {
            const long pid = lockOwnerPid(entry.path().string());
            if (pid > 0 && processAlive(static_cast<pid_t>(pid)))
                continue;
            if (fs::remove(entry.path(), ec)) {
                staleLocks.inc();
                inform("broke stale trace cache lock ", name,
                       " (owner pid ", pid, " is gone)");
            }
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
    // Legacy name kept so existing dashboards and the report contract
    // keep seeing corrupt-entry events under the counter they already
    // watch.
    static obs::Counter &corrupt =
        obs::counter("tracestore.cache.corrupt_evictions");

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
    corrupt.inc();
}

TraceCacheLock
TraceCacheLock::acquire(const TraceCache &cache,
                        const TraceCacheKey &key, Status *status)
{
    static obs::Counter &lockBusy =
        obs::counter("tracestore.cache.lock_busy");
    static obs::Counter &staleLocks =
        obs::counter("tracestore.cache.stale_locks_broken");
    static obs::Counter &takeovers =
        obs::counter("tracestore.cache.lock_takeovers");

    const std::string path =
        cache.dir() + "/" + traceCacheDigest(key) + ".lock";

    TraceCacheLock lock;
    Status st;
    // Two tries: the second is only reached after breaking a stale or
    // expired lock; losing the race again means a live competitor ->
    // Busy.
    for (int attempt = 0; attempt < 2; ++attempt) {
        const int fd =
            ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd >= 0) {
            const std::string pid =
                std::to_string(static_cast<long>(::getpid())) + "\n";
            // A short write here only makes the lock look stale to
            // others, which is safe (they break it), so no retry loop.
            if (::write(fd, pid.data(), pid.size()) !=
                static_cast<ssize_t>(pid.size()))
                warn("short write to trace cache lock ", path);
            ::close(fd);
            lock.lockPath = path;
            break;
        }
        if (errno != EEXIST) {
            st = Status::ioError("cannot create trace cache lock " +
                                 path);
            break;
        }
        const long owner = lockOwnerPid(path);
        if (owner > 0 && processAlive(static_cast<pid_t>(owner))) {
            // Live owner: honor the lock while its heartbeat is
            // fresh. Past the TTL the holder is presumed wedged —
            // a pid that never exits would otherwise force every
            // future run of this key to degrade-to-uncached.
            const uint64_t ttl = ttlMs();
            const uint64_t age = lockAgeMs(path);
            if (attempt == 0 && ttl > 0 && age > ttl) {
                std::error_code ec;
                if (std::filesystem::remove(path, ec)) {
                    takeovers.inc();
                    warn("took over trace cache lock ", path,
                         " (owner pid ", owner,
                         " is alive but heartbeat is ", age,
                         "ms old, TTL ", ttl, "ms)");
                }
                continue;
            }
            lockBusy.inc();
            st = Status::busy("trace cache entry is being generated "
                              "by live pid " +
                              std::to_string(owner));
            break;
        }
        if (attempt == 0) {
            std::error_code ec;
            if (std::filesystem::remove(path, ec)) {
                staleLocks.inc();
                inform("broke stale trace cache lock ", path,
                       " (owner pid ", owner, " is gone)");
            }
            continue;
        }
        lockBusy.inc();
        st = Status::busy("lost trace cache lock race on " + path);
    }
    if (status != nullptr)
        *status = st;
    return lock;
}

void
TraceCacheLock::touch() const
{
    if (lockPath.empty())
        return;
    if (::utimensat(AT_FDCWD, lockPath.c_str(), nullptr, 0) != 0)
        warn("cannot refresh trace cache lock heartbeat ", lockPath);
}

uint64_t
TraceCacheLock::ttlMs()
{
    uint64_t ttl = gLockTtlMs.load(std::memory_order_relaxed);
    if (ttl != UINT64_MAX)
        return ttl;
    ttl = kDefaultTtlMs;
    if (const char *env = std::getenv("BPNSP_TRACE_LOCK_TTL_MS");
        env != nullptr && env[0] != '\0') {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0')
            ttl = v;
        else
            warn("ignoring malformed BPNSP_TRACE_LOCK_TTL_MS: ", env);
    }
    gLockTtlMs.store(ttl, std::memory_order_relaxed);
    return ttl;
}

void
TraceCacheLock::setTtlMs(uint64_t ms)
{
    gLockTtlMs.store(ms, std::memory_order_relaxed);
}

TraceCacheLock::TraceCacheLock(TraceCacheLock &&other) noexcept
    : lockPath(std::move(other.lockPath))
{
    other.lockPath.clear();
}

TraceCacheLock &
TraceCacheLock::operator=(TraceCacheLock &&other) noexcept
{
    if (this != &other) {
        release();
        lockPath = std::move(other.lockPath);
        other.lockPath.clear();
    }
    return *this;
}

void
TraceCacheLock::release()
{
    if (lockPath.empty())
        return;
    std::error_code ec;
    std::filesystem::remove(lockPath, ec);
    lockPath.clear();
}

} // namespace bpnsp
