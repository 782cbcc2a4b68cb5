/**
 * @file
 * Tests for the content-addressed trace cache and its runner wiring:
 * digest stability, cold-run population, warm-run bit-identical replay
 * (proven by planting a distinctive store under the key), stale-key
 * misses on scale changes and format-version bumps, graceful fallback
 * on unusable entries, and the one openVerified() rule for what gets
 * quarantined.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/metrics.hpp"
#include "tracestore/cache.hpp"
#include "tracestore/format.hpp"
#include "tracestore/store.hpp"
#include "util/cancel.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

constexpr uint64_t kInstructions = 20000;

/** Fresh cache directory per test; removed on destruction. */
class CacheDirGuard
{
  public:
    explicit CacheDirGuard(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_cache_" + tag)
    {
        std::filesystem::remove_all(path);
        setTraceCacheDir(path);
    }

    ~CacheDirGuard()
    {
        // Unhook the process-wide cache before deleting the directory
        // so later tests start from a clean, explicit state.
        setTraceCacheDir("");
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    const std::string path;
};

TraceCacheKey
keyFor(const Workload &w, uint64_t instructions)
{
    return TraceCacheKey{w.name, w.inputs[0].label, w.inputs[0].seed,
                         instructions};
}

/** Publish the first `records` records of mcf_like input 0 under key. */
void
publishPrefix(const TraceCache &cache, const TraceCacheKey &key,
              uint64_t records)
{
    const std::string staging = cache.stagingPath(key);
    {
        TraceStoreWriter writer(staging);
        runTrace(findWorkload("mcf_like").build(0), {&writer}, records);
        ASSERT_TRUE(writer.status().ok()) << writer.status().str();
    }
    const Status published = cache.publish(staging, key);
    ASSERT_TRUE(published.ok()) << published.str();
}

uint64_t
quarantinedCount()
{
    return obs::Registry::instance().counterValue(
        "tracestore.cache.quarantined");
}

} // namespace

TEST(TraceCacheDigest, StableAndKeySensitive)
{
    const TraceCacheKey key{"mcf_like", "input-0", 42, 1000000};
    const std::string digest = traceCacheDigest(key);
    EXPECT_EQ(digest.size(), 16u);
    EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    // Same key, same digest — the whole point of content addressing.
    EXPECT_EQ(traceCacheDigest(key), digest);

    // Every field must participate in the address.
    TraceCacheKey other = key;
    other.workload = "gcc_like";
    EXPECT_NE(traceCacheDigest(other), digest);
    other = key;
    other.input = "input-1";
    EXPECT_NE(traceCacheDigest(other), digest);
    other = key;
    other.seed = 43;
    EXPECT_NE(traceCacheDigest(other), digest);
    other = key;
    other.instructions = 2000000;
    EXPECT_NE(traceCacheDigest(other), digest);
}

TEST(TraceCache, ColdRunPopulates)
{
    CacheDirGuard guard("cold");
    const Workload w = findWorkload("mcf_like");
    const TraceCacheKey key = keyFor(w, kInstructions);
    TraceCache cache(guard.path);
    ASSERT_FALSE(cache.contains(key));

    CountingSink sink;
    const uint64_t executed =
        runWorkloadTrace(w, 0, {&sink}, kInstructions);
    EXPECT_EQ(executed, kInstructions);
    EXPECT_EQ(sink.totalCount(), kInstructions);
    EXPECT_TRUE(cache.contains(key));

    // The published entry is a valid store holding the exact trace.
    Status st;
    auto reader = TraceStoreReader::open(cache.entryPath(key), &st);
    ASSERT_NE(reader, nullptr) << st.str();
    EXPECT_EQ(reader->count(), kInstructions);

    // No staging debris left behind.
    size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(guard.path)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(TraceCache, WarmRunReplaysBitIdentical)
{
    CacheDirGuard guard("warm");
    const Workload w = findWorkload("mcf_like");

    DigestSink cold;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&cold}, kInstructions),
              kInstructions);
    DigestSink warm;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&warm}, kInstructions),
              kInstructions);
    EXPECT_EQ(warm.count(), cold.count());
    EXPECT_EQ(warm.digest(), cold.digest())
        << "warm replay diverged from live execution";
}

TEST(TraceCache, WarmRunComesFromTheCacheNotTheVm)
{
    CacheDirGuard guard("planted");
    const Workload w = findWorkload("mcf_like");
    const TraceCacheKey key = keyFor(w, kInstructions);
    TraceCache cache(guard.path);

    // Plant a store of the right length but distinctive content under
    // the key. If the runner really replays from the cache, sinks must
    // see the planted records, not a fresh VM execution.
    {
        // stagingPath() is unique per call, so take it exactly once.
        const std::string staging = cache.stagingPath(key);
        TraceStoreWriter writer(staging);
        for (uint64_t i = 0; i < kInstructions; ++i) {
            TraceRecord rec;
            rec.ip = 0xdead0000 + i;
            rec.fallthrough = rec.ip + 4;
            writer.onRecord(rec);
        }
        writer.onEnd();
        ASSERT_TRUE(writer.status().ok()) << writer.status().str();
        const Status published = cache.publish(staging, key);
        ASSERT_TRUE(published.ok()) << published.str();
    }

    VectorSink sink;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&sink}, kInstructions),
              kInstructions);
    ASSERT_EQ(sink.get().size(), kInstructions);
    EXPECT_EQ(sink.get()[0].ip, 0xdead0000u);
    EXPECT_EQ(sink.get()[kInstructions - 1].ip,
              0xdead0000u + kInstructions - 1);
}

TEST(TraceCache, StaleKeyOnScaleChangeMisses)
{
    CacheDirGuard guard("stale");
    const Workload w = findWorkload("mcf_like");
    TraceCache cache(guard.path);

    CountingSink sink;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&sink}, kInstructions),
              kInstructions);
    EXPECT_TRUE(cache.contains(keyFor(w, kInstructions)));

    // A different instruction budget is a different trace: its key
    // must miss and the run must populate a second, separate entry.
    const uint64_t other = kInstructions / 2;
    EXPECT_FALSE(cache.contains(keyFor(w, other)));
    CountingSink sink2;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&sink2}, other), other);
    EXPECT_TRUE(cache.contains(keyFor(w, other)));
    EXPECT_TRUE(cache.contains(keyFor(w, kInstructions)));
    EXPECT_NE(cache.entryPath(keyFor(w, other)),
              cache.entryPath(keyFor(w, kInstructions)));
}

TEST(TraceCache, UnusableEntryFallsBackToExecution)
{
    CacheDirGuard guard("fallback");
    const Workload w = findWorkload("mcf_like");
    const TraceCacheKey key = keyFor(w, kInstructions);
    TraceCache cache(guard.path);

    DigestSink reference;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&reference}, kInstructions),
              kInstructions);

    // Truncate the published entry so it no longer opens. The next run
    // must fall back to live execution, still deliver the full trace,
    // repair the cache entry, and count the quarantine — and the
    // damaged file must survive as quarantined evidence, not vanish.
    const std::string entry = cache.entryPath(key);
    std::filesystem::resize_file(
        entry, std::filesystem::file_size(entry) / 2);
    const uint64_t quarantinedBefore =
        obs::Registry::instance().counterValue(
            "tracestore.cache.quarantined");

    DigestSink repaired;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&repaired}, kInstructions),
              kInstructions);
    EXPECT_EQ(repaired.digest(), reference.digest());
    EXPECT_EQ(obs::Registry::instance().counterValue(
                  "tracestore.cache.quarantined"),
              quarantinedBefore + 1);

    const std::string evidence =
        guard.path + "/" + traceCacheDigest(key) + ".quarantine.0";
    EXPECT_TRUE(std::filesystem::exists(evidence))
        << "quarantine should preserve the damaged entry";

    Status st;
    auto reader = TraceStoreReader::open(entry, &st);
    ASSERT_NE(reader, nullptr)
        << "entry not repaired after fallback: " << st.str();
    EXPECT_EQ(reader->count(), kInstructions);
}

TEST(TraceCache, OrphanGcCollectsDeadPidDebris)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "bpnsp_cache_gc";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // A genuinely dead pid: fork a child that exits immediately.
    const pid_t dead = fork();
    ASSERT_GE(dead, 0);
    if (dead == 0)
        _exit(0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(dead, &wstatus, 0), dead);

    const auto touch = [&](const std::string &name,
                           const std::string &content) {
        std::ofstream(dir + "/" + name) << content;
    };
    const std::string deadPid = std::to_string(static_cast<long>(dead));
    const std::string livePid =
        std::to_string(static_cast<long>(::getpid()));
    touch("aaaa.staging." + deadPid + ".0", "torn");
    touch("cccc.staging." + livePid + ".0", "in progress");
    touch("eeee.bpt", "published entry, never touched");

    const uint64_t orphansBefore =
        obs::Registry::instance().counterValue(
            "tracestore.cache.orphans_collected");

    TraceCache cache(dir);   // construction runs the GC

    EXPECT_FALSE(std::filesystem::exists(dir + "/aaaa.staging." +
                                         deadPid + ".0"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/cccc.staging." +
                                        livePid + ".0"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/eeee.bpt"));
    EXPECT_EQ(obs::Registry::instance().counterValue(
                  "tracestore.cache.orphans_collected"),
              orphansBefore + 1);

    std::filesystem::remove_all(dir);
}

TEST(TraceCache, DisabledCacheRunsLive)
{
    // With no cache configured the runner must execute the VM and
    // write nothing anywhere.
    setTraceCacheDir("");
    const Workload w = findWorkload("mcf_like");
    CountingSink sink;
    EXPECT_EQ(runWorkloadTrace(w, 0, {&sink}, kInstructions),
              kInstructions);
    EXPECT_EQ(sink.totalCount(), kInstructions);
    EXPECT_TRUE(traceCacheDir().empty());
}

TEST(TraceCache, OpenVerifiedQuarantinesDamageOnly)
{
    CacheDirGuard guard("open_verified");
    const TraceCache cache(guard.path);
    const TraceCacheKey key = keyFor(findWorkload("mcf_like"),
                                     kInstructions);
    const std::string entry = cache.entryPath(key);
    const std::string slot =
        guard.path + "/" + traceCacheDigest(key) + ".quarantine.";
    publishPrefix(cache, key, kInstructions);

    Status st;
    EXPECT_NE(cache.openVerified(key, &st), nullptr) << st.str();

    // An I/O error and a cancelled verify say nothing about the bytes:
    // the entry stays where it is and still verifies afterwards.
    const uint64_t before = quarantinedCount();
    ASSERT_TRUE(faultsim::configure("tracestore.read.eio").ok());
    EXPECT_EQ(cache.openVerified(key, &st), nullptr);
    faultsim::reset();
    EXPECT_EQ(st.code(), StatusCode::IoError) << st.str();
    {
        CancelToken fired;
        fired.requestCancel();
        CancelScope scope(fired);
        EXPECT_EQ(cache.openVerified(key, &st), nullptr);
    }
    EXPECT_EQ(st.code(), StatusCode::Cancelled) << st.str();
    EXPECT_EQ(quarantinedCount(), before);
    EXPECT_FALSE(std::filesystem::exists(slot + "0"));
    EXPECT_NE(cache.openVerified(key, &st), nullptr) << st.str();

    // A wrong record count and a truncated file are damage.
    publishPrefix(cache, key, kInstructions / 2);
    EXPECT_EQ(cache.openVerified(key, &st), nullptr);
    EXPECT_EQ(st.code(), StatusCode::CorruptData) << st.str();
    EXPECT_FALSE(std::filesystem::exists(entry));
    EXPECT_TRUE(std::filesystem::exists(slot + "0"));

    publishPrefix(cache, key, kInstructions);
    std::filesystem::resize_file(entry,
                                 std::filesystem::file_size(entry) / 2);
    EXPECT_EQ(cache.openVerified(key, &st), nullptr);
    EXPECT_EQ(st.code(), StatusCode::CorruptData) << st.str();
    EXPECT_FALSE(std::filesystem::exists(entry));
    EXPECT_TRUE(std::filesystem::exists(slot + "1"));
    EXPECT_EQ(quarantinedCount(), before + 2);
}

TEST(TraceCache, RunnerRegeneratesDamageAndLeavesUnreadableEntries)
{
    CacheDirGuard guard("runner_rule");
    const Workload w = findWorkload("mcf_like");
    const TraceCacheKey key = keyFor(w, kInstructions);
    const TraceCache cache(guard.path);
    const std::string entry = cache.entryPath(key);
    const std::string slot =
        guard.path + "/" + traceCacheDigest(key) + ".quarantine.";
    DigestSink direct;
    ASSERT_EQ(runTrace(w.build(0), {&direct}, kInstructions),
              kInstructions);

    // Wrong record count: quarantined, then regenerated from the VM.
    publishPrefix(cache, key, kInstructions / 2);
    const uint64_t before = quarantinedCount();
    DigestSink regenerated;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&regenerated}, kInstructions),
              kInstructions);
    EXPECT_EQ(regenerated.digest(), direct.digest());
    EXPECT_EQ(quarantinedCount(), before + 1);
    EXPECT_TRUE(std::filesystem::exists(slot + "0"));
    Status st;
    EXPECT_NE(cache.openVerified(key, &st), nullptr) << st.str();

    // Unreadable entry: not quarantined; the run still delivers the
    // VM stream.
    ASSERT_TRUE(faultsim::configure("tracestore.read.eio").ok());
    DigestSink unreadable;
    EXPECT_EQ(runWorkloadTrace(w, 0, {&unreadable}, kInstructions),
              kInstructions);
    faultsim::reset();
    EXPECT_EQ(unreadable.digest(), direct.digest());

    // Cancelled verify: the run is abandoned and the entry stays.
    {
        CancelToken fired;
        fired.requestCancel();
        CancelScope scope(fired);
        CountingSink cancelled;
        EXPECT_EQ(runWorkloadTrace(w, 0, {&cancelled}, kInstructions),
                  0u);
        EXPECT_EQ(cancelled.totalCount(), 0u);
    }
    EXPECT_EQ(quarantinedCount(), before + 1);
    EXPECT_FALSE(std::filesystem::exists(slot + "1"));
    EXPECT_TRUE(std::filesystem::exists(entry));
    EXPECT_NE(cache.openVerified(key, &st), nullptr) << st.str();
}

TEST(TraceCache, PreviousVersionEntryMissesAndRegenerates)
{
    CacheDirGuard guard("prev_version");
    const Workload w = findWorkload("mcf_like");
    const TraceCacheKey key = keyFor(w, kInstructions);
    const TraceCache cache(guard.path);

    // Leave a complete trace only where the previous format version
    // addressed it: the same canonical key string, one version lower.
    // Its bytes never matter, because the current key never names it.
    const std::string previousCanonical =
        key.workload + "\n" + key.input + "\n" +
        std::to_string(key.seed) + "\n" +
        std::to_string(key.instructions) + "\nstore-v" +
        std::to_string(kStoreVersion - 1);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(previousCanonical)));
    const std::string previous = guard.path + "/" + hex + ".bpt";
    publishPrefix(cache, key, kInstructions);
    std::filesystem::rename(cache.entryPath(key), previous);
    ASSERT_NE(previous, cache.entryPath(key));
    EXPECT_FALSE(cache.contains(key));

    const obs::Registry &reg = obs::Registry::instance();
    const uint64_t missesBefore =
        reg.counterValue("tracestore.cache.misses");
    const uint64_t hitsBefore = reg.counterValue("tracestore.cache.hits");
    const uint64_t quarantinedBefore = quarantinedCount();
    DigestSink regenerated;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&regenerated}, kInstructions),
              kInstructions);
    EXPECT_EQ(reg.counterValue("tracestore.cache.misses"),
              missesBefore + 1);
    EXPECT_EQ(reg.counterValue("tracestore.cache.hits"), hitsBefore);
    EXPECT_EQ(quarantinedCount(), quarantinedBefore);

    // The entry is regenerated under the current key and verifies;
    // the previous-version file is left alone, never read.
    Status st;
    auto reader = cache.openVerified(key, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    DigestSink replayed;
    ASSERT_TRUE(reader->replay(replayed, 0).ok());
    EXPECT_EQ(replayed.digest(), regenerated.digest());
    EXPECT_TRUE(std::filesystem::exists(previous));
}
