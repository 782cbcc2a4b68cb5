/**
 * @file
 * Unit and property tests for the util foundation library.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "trace/sink.hpp"
#include "util/bitops.hpp"
#include "util/cancel.hpp"
#include "util/signals.hpp"
#include "workloads/suite.hpp"
#include "util/folded_history.hpp"
#include "util/hash.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/sat_counter.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace bpnsp;

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);   // all values hit
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIndependent)
{
    Rng a(5);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(Rng, Splitmix64KnownVectors)
{
    // Reference values from the splitmix64 test vectors (Vigna); any
    // drift here silently re-seeds every derived stream in the repo.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitmix64(splitmix64(0)), 0xa706dd2f4d197e6full);
}

TEST(Rng, Fnv1a64Basis)
{
    // Empty input returns the FNV offset basis; the probe string is
    // the classic reference vector.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a("a"), fnv1a("b"));
    // The byte-range and string overloads are one hash, and a seed
    // continues a running hash across pieces.
    const std::string_view text = "branch";
    EXPECT_EQ(fnv1a(text.data(), text.size()), fnv1a(text));
    EXPECT_EQ(fnv1a(text.data() + 3, 3, fnv1a(text.substr(0, 3))),
              fnv1a(text));
}

namespace {

/** `len` deterministic pseudo-random bytes. */
std::vector<uint8_t>
randomBytes(size_t len, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> bytes(len);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    return bytes;
}

} // namespace

TEST(Checksum64, DetectsEverySingleBitFlip)
{
    // Lengths 0..97 cross the 32-byte block loop, the 8-byte word
    // loop and the padded tail word, with every bit position flipped.
    for (size_t len = 0; len <= 97; ++len) {
        std::vector<uint8_t> bytes = randomBytes(len, len);
        const uint64_t clean = checksum64(bytes.data(), len);
        size_t missed = 0;
        for (size_t bit = 0; bit < len * 8; ++bit) {
            bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            missed += checksum64(bytes.data(), len) == clean;
            bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        EXPECT_EQ(missed, 0u) << "length " << len;
    }
}

TEST(Checksum64, TrailingZeroByteChangesChecksum)
{
    // The zero-padded tail word alone cannot tell these apart; the
    // length mixed in last must.
    for (size_t len = 0; len <= 97; ++len) {
        std::vector<uint8_t> bytes = randomBytes(len, 1000 + len);
        const uint64_t shorter = checksum64(bytes.data(), len);
        bytes.push_back(0);
        EXPECT_NE(checksum64(bytes.data(), len + 1), shorter)
            << "length " << len;
    }
}

TEST(Checksum64, KnownAnswers)
{
    // Pins of the trace store v3 chunk and footer checksum: a change
    // here makes every stored trace unreadable, so it must come with
    // a kStoreVersion bump.
    EXPECT_EQ(checksum64(nullptr, 0), 0x4b1852f2365ca1dbull);
    EXPECT_EQ(checksum64("a", 1), 0x3b97971dc4c441c9ull);
    const std::vector<uint8_t> bytes = randomBytes(97, 7);
    EXPECT_EQ(checksum64(bytes.data(), 44), 0xdb45f24491fed832ull);
    EXPECT_EQ(checksum64(bytes.data(), 97), 0x98bc192531a9fea2ull);
    // A seed starts a distinct stream over the same bytes.
    EXPECT_EQ(checksum64(bytes.data(), 97, 1), 0xdbaa0f006ba31242ull);
}

TEST(Rng, IndexedStreamsReproducibleAndIndependent)
{
    Rng a = Rng::stream(99, uint64_t{3});
    Rng b = Rng::stream(99, uint64_t{3});
    Rng c = Rng::stream(99, uint64_t{4});
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        same += (va == c.next());
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamsReproducibleAndIndependent)
{
    Rng a = Rng::stream(7, "faultsim.point");
    Rng b = Rng::stream(7, "faultsim.point");
    Rng c = Rng::stream(7, "serve.loadgen");
    Rng d = Rng::stream(8, "faultsim.point");
    int sameName = 0;
    int sameSeed = 0;
    for (int i = 0; i < 64; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        sameName += (va == c.next());
        sameSeed += (va == d.next());
    }
    EXPECT_LT(sameName, 2);
    EXPECT_LT(sameSeed, 2);
}

// ------------------------------------------------------------- bitops

TEST(Bitops, Bits)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffull);
    EXPECT_EQ(bits(0xff00, 0, 8), 0x00ull);
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
}

TEST(Bitops, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
}

TEST(Bitops, Log2)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(7), 2u);
    EXPECT_EQ(log2Floor(8), 3u);
}

TEST(Bitops, Mix64Injective)
{
    std::set<uint64_t> outputs;
    for (uint64_t i = 0; i < 1000; ++i)
        outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Bitops, FoldToWidth)
{
    for (unsigned w = 1; w < 20; ++w)
        EXPECT_LT(foldTo(0x123456789abcdefull, w), 1ull << w);
    EXPECT_EQ(foldTo(0xf, 4), 0xfull);
    // Folding 8 bits to 4: high nibble XOR low nibble.
    EXPECT_EQ(foldTo(0xa5, 4), 0xfull);
}

// -------------------------------------------------------- SatCounter

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.read(), 3u);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.read(), 0u);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, Threshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.taken());   // 1 of max 3: not taken
    c.increment();
    EXPECT_TRUE(c.taken());    // 2 of 3: taken
}

TEST(SignedSatCounter, Range)
{
    SignedSatCounter c(3, 0);
    EXPECT_EQ(c.min(), -4);
    EXPECT_EQ(c.max(), 3);
    for (int i = 0; i < 10; ++i)
        c.update(true);
    EXPECT_EQ(c.read(), 3);
    for (int i = 0; i < 20; ++i)
        c.update(false);
    EXPECT_EQ(c.read(), -4);
}

TEST(SignedSatCounter, TakenAndWeak)
{
    SignedSatCounter c(3, 0);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.weak());
    c.update(false);
    EXPECT_FALSE(c.taken());
    EXPECT_TRUE(c.weak());
    c.update(false);
    EXPECT_FALSE(c.weak());
}

TEST(SignedSatCounter, Confidence)
{
    SignedSatCounter c(3, 0);
    EXPECT_EQ(c.confidence(), 0u);
    c.update(true);
    EXPECT_EQ(c.confidence(), 1u);
    c.set(-1);
    EXPECT_EQ(c.confidence(), 0u);
    c.set(-4);
    EXPECT_EQ(c.confidence(), 3u);
}

// ------------------------------------------------- FoldedHistories

/**
 * Property: every incrementally-updated fold equals foldTo() of the
 * newest `length` outcomes, recomputed from a HistoryRegister, for a
 * random outcome sequence and folds that fill and spill over blocks.
 */
TEST(FoldedHistories, MatchesDirectFoldProperty)
{
    const std::vector<std::pair<unsigned, unsigned>> shapes = {
        {37, 7}, {37, 12}, {4, 9}, {64, 11}, {64, 10}, {64, 3},
        {64, 20}, {64, 1}, {130, 10}, {200, 30}, {1, 1}};
    FoldedHistories folds(200);
    std::vector<unsigned> slots;
    for (const auto &[length, width] : shapes)
        slots.push_back(folds.add(length, width));
    HistoryRegister hist(201);
    Rng rng(21);

    for (int step = 0; step < 600; ++step) {
        const bool bit = rng.chance(0.5);
        folds.push(bit);
        hist.push(bit);
        for (size_t k = 0; k < shapes.size(); ++k) {
            const auto [length, width] = shapes[k];
            uint32_t direct = 0;
            for (unsigned i = 0; i < length; ++i)
                direct ^= static_cast<uint32_t>(hist.at(i)) << (i % width);
            ASSERT_EQ(folds[slots[k]], direct)
                << "step " << step << " fold " << length << "/" << width;
        }
    }
}

TEST(FoldedHistories, ZeroHistoryFoldsToZero)
{
    FoldedHistories folds(100);
    folds.add(100, 10);
    for (int i = 0; i < 500; ++i)
        folds.push(false);
    EXPECT_EQ(folds[0], 0u);
}

TEST(FoldedHistories, DistinctHistoriesUsuallyDiffer)
{
    // Two different histories should (almost always) fold differently.
    FoldedHistories a(32);
    FoldedHistories b(32);
    a.add(32, 8);
    b.add(32, 8);
    Rng rng(3);
    for (int i = 0; i < 32; ++i) {
        a.push(rng.chance(0.5));
        b.push(rng.chance(0.5));
    }
    // Not guaranteed, but overwhelmingly likely for this seed.
    EXPECT_NE(a[0], b[0]);
}

TEST(HistoryRegister, PushAndAt)
{
    HistoryRegister hist(128);
    hist.push(true);
    hist.push(false);
    hist.push(true);
    EXPECT_TRUE(hist.at(0));    // most recent
    EXPECT_FALSE(hist.at(1));
    EXPECT_TRUE(hist.at(2));
}

TEST(HistoryRegister, CrossesWordBoundary)
{
    HistoryRegister hist(128);
    for (int i = 0; i < 70; ++i)
        hist.push(i % 2 == 0);
    // Bit pushed at i is at position 69 - i.
    EXPECT_TRUE(hist.at(69));    // i=0 was true
    EXPECT_FALSE(hist.at(68));   // i=1 false
    EXPECT_TRUE(hist.at(1));     // i=68 true
}

TEST(HistoryRegister, Low)
{
    HistoryRegister hist(64);
    hist.push(true);
    hist.push(true);
    hist.push(false);
    EXPECT_EQ(hist.low(3), 0b110ull);
}

// ------------------------------------------------------------- stats

TEST(OnlineStats, MeanAndStddev)
{
    OnlineStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsDistinguishableFromZero)
{
    OnlineStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    // The accessors fall back to 0.0 when empty — exactly why empty()
    // exists: a real observation of 0 looks the same otherwise.
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);

    s.add(0.0);
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, MergeEqualsCombined)
{
    OnlineStats all;
    OnlineStats a;
    OnlineStats b;
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
        const double v = rng.uniform() * 10;
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_EQ(medianU64({5, 1, 9}), 5u);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

// -------------------------------------------------------- json writer

TEST(JsonWriter, EscapesAndNumbers)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01" "b")), "a\\u0001b");
    EXPECT_EQ(jsonEscape("plain"), "plain");

    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(INFINITY), "null");
    EXPECT_EQ(jsonNumber(-INFINITY), "null");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(1e6), "1000000");

    // The escaped text parses back to the original string.
    JsonValue doc;
    const std::string raw = "q\" b\\ n\n c\x01";
    ASSERT_TRUE(JsonValue::parse("\"" + jsonEscape(raw) + "\"", &doc)
                    .ok());
    EXPECT_EQ(doc.asString(), raw);
}

TEST(JsonParser, RejectsMalformedInput)
{
    // Each document is refused as InvalidArgument, and the message
    // names the offset of the first byte parsing could not accept.
    const std::pair<std::string, size_t> cases[] = {
        {"not json", 0},     {"{\"a\": 1} x", 9}, {"\"abc", 4},
        {"\"\\u00zz\"", 5}, {"{\"a\": 1", 7},
    };
    for (const auto &[bad, offset] : cases) {
        SCOPED_TRACE(bad);
        JsonValue doc;
        const Status st = JsonValue::parse(bad, &doc);
        EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
        const std::string &msg = st.message();
        const size_t at = msg.rfind(" at offset ");
        ASSERT_NE(at, std::string::npos) << st.str();
        EXPECT_EQ(msg.substr(at), " at offset " + std::to_string(offset));
    }
    // The literals next to those refusals are accepted; a boolean
    // keeps only its kind.
    for (const char *word : {"true", "false"}) {
        SCOPED_TRACE(word);
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(word, &doc).ok());
        EXPECT_EQ(doc.kind(), JsonValue::Kind::Bool);
    }
}

// --------------------------------------------------------- histogram

TEST(Histogram, BinAssignment)
{
    Histogram h({0.0, 1.0, 10.0, 100.0});
    h.add(0.5);
    h.add(1.0);
    h.add(5.0);
    h.add(99.0);
    h.add(100.0);   // last edge goes into the final (closed) bin
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 2u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, OutOfRange)
{
    Histogram h({0.0, 10.0});
    h.add(-1.0);
    h.add(11.0);
    EXPECT_EQ(h.underflowCount(), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.total(), 0u);
}

TEST(Histogram, Fractions)
{
    Histogram h({0.0, 1.0, 2.0});
    h.add(0.5, 3);
    h.add(1.5, 1);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(Histogram, Labels)
{
    Histogram h({0.0, 1000.0, 1000000.0});
    EXPECT_EQ(h.binLabel(0), "0-1K");
    EXPECT_EQ(h.binLabel(1), "1K-1M");
}

TEST(Histogram, LinearFactory)
{
    Histogram h = Histogram::linear(0.0, 10.0, 2.0);
    EXPECT_EQ(h.numBins(), 5u);
    EXPECT_DOUBLE_EQ(h.binLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binHi(4), 10.0);
}

// ------------------------------------------------------------- table

TEST(TextTable, RenderContainsCells)
{
    TextTable t("Title");
    t.setHeader({"a", "b"});
    t.beginRow();
    t.cell(std::string("x"));
    t.cell(uint64_t{42});
    const std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("x"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TextTable, At)
{
    TextTable t;
    t.addRow({"p", "q"});
    EXPECT_EQ(t.at(0, 1), "q");
    EXPECT_EQ(t.numRows(), 1u);
    EXPECT_EQ(t.numCols(), 2u);
}

TEST(TextTable, PercentCell)
{
    TextTable t;
    t.beginRow();
    t.percentCell(0.553);
    EXPECT_EQ(t.render().find("55.3%") != std::string::npos, true);
}

TEST(Formatting, Grouped)
{
    EXPECT_EQ(fmtGrouped(0), "0");
    EXPECT_EQ(fmtGrouped(999), "999");
    EXPECT_EQ(fmtGrouped(13865), "13,865");
    EXPECT_EQ(fmtGrouped(1000000), "1,000,000");
}

// ----------------------------------------------------------- options

TEST(Options, ParseForms)
{
    OptionParser p("test");
    p.addInt("n", 5, "an int");
    p.addString("s", "x", "a string");
    p.addFlag("f", "a flag");
    p.addDouble("d", 1.5, "a double");
    const char *argv[] = {"prog", "--n=7", "--s", "hello", "--f",
                          "--d=2.25"};
    p.parse(6, argv);
    EXPECT_EQ(p.getInt("n"), 7);
    EXPECT_EQ(p.getString("s"), "hello");
    EXPECT_TRUE(p.getFlag("f"));
    EXPECT_DOUBLE_EQ(p.getDouble("d"), 2.25);
}

TEST(Options, Defaults)
{
    OptionParser p("test");
    p.addInt("n", 5, "an int");
    p.addFlag("f", "a flag");
    const char *argv[] = {"prog"};
    p.parse(1, argv);
    EXPECT_EQ(p.getInt("n"), 5);
    EXPECT_FALSE(p.getFlag("f"));
}

TEST(Options, StandardSetIsMetricsAndFaults)
{
    // Only the two standard options are pre-registered; any other
    // flag is unknown, and parse() exits 1.
    for (const char *arg :
         {"--snapshot-ms=5", "--progress", "--trace-out=t.json"}) {
        SCOPED_TRACE(arg);
        OptionParser p("test");
        const char *argv[] = {"prog", arg};
        EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                    "unknown option");
    }
    OptionParser p("test");
    const char *argv[] = {"prog", "--metrics-out=m.json",
                          "--faults=seed=7"};
    p.parse(3, argv);
    EXPECT_EQ(p.getString("metrics-out"), "m.json");
    EXPECT_EQ(p.getString("faults"), "seed=7");
}

// -------------------------------------------------------------- logging

TEST(Logging, LevelGatesWarnAndInform)
{
    const LogLevel saved = logLevel();

    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    warn("warn at info level");
    inform("inform at info level");
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: warn at info level"), std::string::npos);
    EXPECT_NE(out.find("info: inform at info level"), std::string::npos);

    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    warn("warn at warn level");
    inform("inform at warn level");
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn at warn level"), std::string::npos);
    EXPECT_EQ(out.find("inform at warn level"), std::string::npos);

    setLogLevel(LogLevel::Quiet);
    ::testing::internal::CaptureStderr();
    warn("warn at quiet level");
    inform("inform at quiet level");
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(out.empty()) << out;

    setLogLevel(saved);
}

// ----------------------------------------------------------- signals

TEST(Signals, FirstSigtermDrainsSecondForceExits)
{
    // Fork so the handler installation and the signals stay out of
    // the gtest process. First SIGTERM in drain mode only fires the
    // cancel token; the second force-exits with 128+SIGTERM.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        signals::installGracefulDrain();
        ::raise(SIGTERM);
        if (!globalCancelToken().cancelled())
            ::_exit(90);   // first signal must fire the token
        if (signals::firedCount() != 1 ||
            signals::lastSignal() != SIGTERM)
            ::_exit(91);
        ::raise(SIGTERM);   // second signal: never returns
        ::_exit(92);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 128 + SIGTERM);
}

namespace {

/** Counts the records it receives after the global token fired. */
class LateRecordSink : public TraceSink
{
  public:
    void
    onRecord(const TraceRecord &) override
    {
        if (globalCancelToken().cancelled())
            ++late;
    }

    uint64_t late = 0;
};

} // namespace

TEST(Signals, SigtermDuringColdTraceGenerationDrainsPromptly)
{
    // A supervisor's drain depends on cold trace generation honoring
    // the cancel token: SIGTERM mid-generation must cut the run short
    // at the VM's next cancellation poll (every 2^18 instructions)
    // instead of blocking the drain until the trace completes. The
    // check counts records delivered after the token fired, so a
    // signal that lands after the last record (while the capture is
    // flushed, fsynced and published) is not mistaken for a run that
    // ignored it.
    constexpr uint64_t kPollInterval = uint64_t{1} << 18;
    const std::string dir =
        std::string(::testing::TempDir()) + "bpnsp_sig_coldgen";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        signals::installGracefulDrain();
        setTraceCacheDir(dir);
        const Workload workload = findWorkload("mcf_like");
        // Fresh instruction counts keep every iteration a cold
        // generation; the loop ends only via the token.
        uint64_t instructions = 4000000;
        while (!globalCancelToken().cancelled()) {
            auto bp = makePredictor("gshare");
            PredictorSim sim(*bp, /*collect_per_branch=*/false);
            LateRecordSink late;
            runWorkloadTrace(workload, 0, {&sim, &late}, instructions);
            if (late.late > kPollInterval)
                ::_exit(93);   // ran past a poll after the signal
            ++instructions;
        }
        ::_exit(0);
    }
    // Let the child get into a generation, then ask it to drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    std::filesystem::remove_all(dir);
}
