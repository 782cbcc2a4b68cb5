/**
 * @file
 * Tests for the obs telemetry subsystem: exact counting under
 * concurrency, histogram percentile math, JSON run-report round-trips
 * through util/json's parser, empty-stats serialization, the
 * trace-cache hit/miss counters observed through the real
 * runWorkloadTrace() path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

/**
 * Member `key` of the JSON object `v`. A missing key fails the test
 * loudly instead of reading as null or 0.
 */
const JsonValue &
at(const JsonValue &v, const std::string &key)
{
    EXPECT_TRUE(v.has(key)) << "missing key: " << key;
    return v.get(key);
}

/** Fresh cache directory per test; removed on destruction. */
class CacheDirGuard
{
  public:
    explicit CacheDirGuard(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_obs_" + tag)
    {
        std::filesystem::remove_all(path);
        setTraceCacheDir(path);
    }

    ~CacheDirGuard()
    {
        setTraceCacheDir("");
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    const std::string path;
};

uint64_t
counterValue(const std::string &name)
{
    return obs::Registry::instance().counterValue(name);
}

} // namespace

TEST(ObsCounter, ConcurrentIncrementsSumExactly)
{
    obs::Counter &c = obs::counter("test.obs.concurrent_incs");
    const uint64_t before = c.value();
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIncsPerThread = 100000;

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            // Resolve the handle again on each thread: find-or-create
            // must hand back the same object.
            obs::Counter &mine = obs::counter("test.obs.concurrent_incs");
            for (uint64_t i = 0; i < kIncsPerThread; ++i)
                mine.inc();
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(c.value(), before + kThreads * kIncsPerThread);
}

TEST(ObsCounter, HandleSurvivesResetForTest)
{
    obs::Counter &c = obs::counter("test.obs.reset_survivor");
    c.add(7);
    EXPECT_GE(c.value(), 7u);
    obs::Registry::instance().resetForTest();
    // Identity preserved, value zeroed.
    EXPECT_EQ(&c, &obs::counter("test.obs.reset_survivor"));
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    EXPECT_EQ(counterValue("test.obs.reset_survivor"), 1u);
}

TEST(ObsHistogram, SingleValuePercentilesAreExact)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_single");
    h.observe(1234567);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_EQ(snap.sum, 1234567u);
    EXPECT_EQ(snap.min, 1234567u);
    EXPECT_EQ(snap.max, 1234567u);
    // The clamp to [min, max] makes single-valued histograms exact.
    EXPECT_DOUBLE_EQ(snap.p50, 1234567.0);
    EXPECT_DOUBLE_EQ(snap.p90, 1234567.0);
    EXPECT_DOUBLE_EQ(snap.p99, 1234567.0);
    EXPECT_DOUBLE_EQ(snap.mean, 1234567.0);
}

TEST(ObsHistogram, PercentilesMonotonicAndBucketBounded)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_spread");
    // 90 small values and 10 large: p50 must sit in the small cluster,
    // p99 in the large one, and estimates must stay within the power-
    // of-two bucket that holds the true rank.
    for (int i = 0; i < 90; ++i)
        h.observe(100);   // bucket [64, 128)
    for (int i = 0; i < 10; ++i)
        h.observe(10000); // bucket [8192, 16384)

    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 90u * 100 + 10u * 10000);

    const double p50 = h.percentile(50);
    const double p90 = h.percentile(90);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Rank 50 lands among the 100s: clamped below by min=100,
    // bounded above by the bucket edge 128.
    EXPECT_GE(p50, 100.0);
    EXPECT_LT(p50, 128.0);
    // Rank 99 lands among the 10000s: within [8192, 16384), clamped
    // above by max=10000.
    EXPECT_GE(p99, 8192.0);
    EXPECT_LE(p99, 10000.0);

    // Degenerate percentiles hit the observed extremes exactly.
    EXPECT_DOUBLE_EQ(h.percentile(0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 10000.0);
}

TEST(ObsHistogram, ZeroValueHasItsOwnBucket)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_zero");
    h.observe(0);
    h.observe(0);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 2u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 0u);
    EXPECT_DOUBLE_EQ(snap.p50, 0.0);
}

TEST(ObsHistogram, EmptySnapshot)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_empty");
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(ObsReport, JsonRoundTripOfPopulatedReport)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.resetForTest();
    reg.setRunField("workload", "leela_like");
    reg.setRunField("predictor", "tage-sc-l-8KB");
    obs::counter("run.instructions").add(123456);
    obs::counter("test.obs.roundtrip_events").add(42);
    obs::gauge("test.obs.roundtrip_width").set(3.5);
    obs::Histogram &h = obs::histogram("test.obs.roundtrip_ns");
    h.observe(1000);
    h.observe(1000);

    const std::string text = obs::renderRunReport();
    JsonValue doc;
    const Status st = JsonValue::parse(text, &doc);
    ASSERT_TRUE(st.ok()) << st.str();

    EXPECT_EQ(at(doc, "schema").asString(), "bpnsp-run-report-v1");
    EXPECT_DOUBLE_EQ(at(doc, "schema_rev").asDouble(), 14.0);
    // The optional rev-6 "snapshots" section is never written.
    EXPECT_FALSE(doc.has("snapshots"));

    const JsonValue &run = at(doc, "run");
    EXPECT_EQ(at(run, "workload").asString(), "leela_like");
    EXPECT_EQ(at(run, "predictor").asString(), "tage-sc-l-8KB");
    EXPECT_DOUBLE_EQ(at(run, "instructions").asDouble(), 123456.0);
    EXPECT_GE(at(run, "wall_seconds").asDouble(), 0.0);
    EXPECT_FALSE(at(run, "git").asString().empty());

    const JsonValue &counters = at(doc, "counters");
    EXPECT_DOUBLE_EQ(at(counters, "test.obs.roundtrip_events").asDouble(),
                     42.0);
    EXPECT_DOUBLE_EQ(at(counters, "run.instructions").asDouble(), 123456.0);
    // Contract keys are present even when untouched.
    EXPECT_DOUBLE_EQ(at(counters, "tracestore.cache.hits").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(at(counters, "tracestore.cache.misses").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(at(counters, "bp.predictions").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(at(counters, "bp.mispredicts").asDouble(), 0.0);
    // The serving counters are present even untouched, and no retired
    // key comes back.
    EXPECT_TRUE(counters.has("serve.stats_requests"));
    for (const auto &[name, value] : counters.members()) {
        EXPECT_EQ(name.find("fleet"), std::string::npos) << name;
        EXPECT_NE(name.rfind("synth.", 0), 0u) << name;
        EXPECT_NE(name.rfind("obs.spans_", 0), 0u) << name;
    }
    EXPECT_TRUE(counters.has("serve.shed"));
    EXPECT_TRUE(counters.has("serve.expired"));
    EXPECT_FALSE(counters.has("serve.client.retries"));
    EXPECT_FALSE(counters.has("serve.client.gave_up"));
    EXPECT_FALSE(counters.has("serve.hedges"));
    EXPECT_FALSE(counters.has("serve.hedge_wins"));

    EXPECT_DOUBLE_EQ(
        at(at(doc, "gauges"), "test.obs.roundtrip_width").asDouble(), 3.5);

    const JsonValue &hist =
        at(at(doc, "histograms"), "test.obs.roundtrip_ns");
    EXPECT_DOUBLE_EQ(at(hist, "count").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(at(hist, "sum").asDouble(), 2000.0);
    EXPECT_DOUBLE_EQ(at(hist, "min").asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(at(hist, "max").asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(at(hist, "p50").asDouble(), 1000.0);

    reg.resetForTest();
}

TEST(ObsReport, EmptyHistogramSerializesNullSummaries)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.resetForTest();
    (void)obs::histogram("test.obs.never_observed_ns");

    JsonValue doc;
    const Status st = JsonValue::parse(obs::renderRunReport(), &doc);
    ASSERT_TRUE(st.ok()) << st.str();
    const JsonValue &hist =
        at(at(doc, "histograms"), "test.obs.never_observed_ns");
    EXPECT_DOUBLE_EQ(at(hist, "count").asDouble(), 0.0);
    EXPECT_TRUE(at(hist, "min").isNull());
    EXPECT_TRUE(at(hist, "max").isNull());
    EXPECT_TRUE(at(hist, "mean").isNull());
    EXPECT_TRUE(at(hist, "p50").isNull());

    reg.resetForTest();
}

TEST(ObsReport, StatsJsonEmptyVsPopulated)
{
    OnlineStats empty;
    EXPECT_TRUE(empty.empty());
    JsonValue emptyDoc;
    const Status emptySt =
        JsonValue::parse(obs::statsJson(empty), &emptyDoc);
    ASSERT_TRUE(emptySt.ok()) << emptySt.str();
    EXPECT_DOUBLE_EQ(at(emptyDoc, "count").asDouble(), 0.0);
    EXPECT_TRUE(at(emptyDoc, "min").isNull());
    EXPECT_TRUE(at(emptyDoc, "max").isNull());
    EXPECT_TRUE(at(emptyDoc, "mean").isNull());

    OnlineStats stats;
    stats.add(1.0);
    stats.add(3.0);
    EXPECT_FALSE(stats.empty());
    JsonValue doc;
    const Status st = JsonValue::parse(obs::statsJson(stats), &doc);
    ASSERT_TRUE(st.ok()) << st.str();
    EXPECT_DOUBLE_EQ(at(doc, "count").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(at(doc, "min").asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(at(doc, "max").asDouble(), 3.0);
    EXPECT_DOUBLE_EQ(at(doc, "mean").asDouble(), 2.0);
}

TEST(ObsReport, WriteRunReportProducesParsableFile)
{
    const std::string path =
        std::string(::testing::TempDir()) + "bpnsp_obs_report.json";
    ASSERT_TRUE(obs::writeRunReport(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonValue doc;
    const Status st = JsonValue::parse(text, &doc);
    ASSERT_TRUE(st.ok()) << st.str();
    EXPECT_EQ(at(doc, "schema").asString(), "bpnsp-run-report-v1");
    std::filesystem::remove(path);
}

TEST(ObsIntegration, RunWorkloadTraceCountsCacheHitsAndMisses)
{
    constexpr uint64_t kInstructions = 20000;
    CacheDirGuard guard("hitmiss");
    const Workload w = findWorkload("mcf_like");

    // Cold run: the cache is configured but empty, so the runner must
    // record exactly one miss and no hit.
    const uint64_t missBefore = counterValue("tracestore.cache.misses");
    const uint64_t hitBefore = counterValue("tracestore.cache.hits");
    const uint64_t instrBefore = counterValue("run.instructions");
    CountingSink cold;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&cold}, kInstructions),
              kInstructions);
    EXPECT_EQ(counterValue("tracestore.cache.misses"), missBefore + 1);
    EXPECT_EQ(counterValue("tracestore.cache.hits"), hitBefore);
    EXPECT_EQ(counterValue("run.instructions"),
              instrBefore + kInstructions);

    // Warm run: same key, one hit, no new miss, instructions counted
    // on the replay path too.
    CountingSink warm;
    ASSERT_EQ(runWorkloadTrace(w, 0, {&warm}, kInstructions),
              kInstructions);
    EXPECT_EQ(counterValue("tracestore.cache.misses"), missBefore + 1);
    EXPECT_EQ(counterValue("tracestore.cache.hits"), hitBefore + 1);
    EXPECT_EQ(counterValue("run.instructions"),
              instrBefore + 2 * kInstructions);

    // The runner also stamps run identity into the manifest.
    const auto fields = obs::Registry::instance().runFields();
    EXPECT_EQ(fields.at("workload"), "mcf_like");
    EXPECT_EQ(fields.at("instruction_budget"),
              std::to_string(kInstructions));
}

TEST(ObsIntegration, UncachedRunsTouchNeitherHitNorMiss)
{
    constexpr uint64_t kInstructions = 20000;
    setTraceCacheDir("");
    const uint64_t missBefore = counterValue("tracestore.cache.misses");
    const uint64_t hitBefore = counterValue("tracestore.cache.hits");
    CountingSink sink;
    ASSERT_EQ(runWorkloadTrace(findWorkload("mcf_like"), 0, {&sink},
                               kInstructions),
              kInstructions);
    EXPECT_EQ(counterValue("tracestore.cache.misses"), missBefore);
    EXPECT_EQ(counterValue("tracestore.cache.hits"), hitBefore);
}

TEST(ObsHistogram, P999TracksTheExtremeTail)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_p999");
    for (int i = 0; i < 500; ++i)
        h.observe(100);
    h.observe(1000000);
    const obs::HistogramSnapshot snap = h.snapshot();
    // p99 sits in the bulk (rank 495.99 of 501); p999 must reach into
    // the single outlier's bucket (rank 500.499 passes the 500 bulk
    // events).
    EXPECT_LT(snap.p99, 128.0);
    EXPECT_GE(snap.p999, 128.0);
    EXPECT_LE(snap.p999, 1000000.0);
    EXPECT_LE(snap.p50, snap.p90);
    EXPECT_LE(snap.p90, snap.p99);
    EXPECT_LE(snap.p99, snap.p999);
}

TEST(ObsReport, StatsSnapshotDocumentIsSelfContained)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.resetForTest();
    obs::counter("test.obs.stats_doc").add(11);
    obs::histogram("test.obs.stats_doc_ns").observe(500);

    JsonValue doc;
    const Status st = JsonValue::parse(obs::renderStatsSnapshotJson(), &doc);
    ASSERT_TRUE(st.ok()) << st.str();
    EXPECT_EQ(at(doc, "schema").asString(), "bpnsp-stats-v1");
    EXPECT_FALSE(at(doc, "git").asString().empty());
    EXPECT_GE(at(doc, "wall_seconds").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(
        at(at(doc, "counters"), "test.obs.stats_doc").asDouble(), 11.0);
    const JsonValue &hist =
        at(at(doc, "histograms"), "test.obs.stats_doc_ns");
    EXPECT_DOUBLE_EQ(at(hist, "count").asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(at(hist, "p999").asDouble(), 500.0);

    reg.resetForTest();
}
