#include "obs/metrics.hpp"

#include <algorithm>

namespace bpnsp::obs {

// --- Histogram -------------------------------------------------------

void
Histogram::updateMin(uint64_t v)
{
    uint64_t cur = lo.load(std::memory_order_relaxed);
    while (v < cur &&
           !lo.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
Histogram::updateMax(uint64_t v)
{
    uint64_t cur = hi.load(std::memory_order_relaxed);
    while (v > cur &&
           !hi.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
Histogram::reset()
{
    for (auto &b : buckets)
        b.store(0, std::memory_order_relaxed);
    n.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
    lo.store(UINT64_MAX, std::memory_order_relaxed);
    hi.store(0, std::memory_order_relaxed);
}

double
Histogram::percentile(double p) const
{
    if (count() == 0)
        return 0.0;
    const uint64_t vmin = lo.load(std::memory_order_relaxed);
    const uint64_t vmax = hi.load(std::memory_order_relaxed);
    // Copy the buckets once so the rank and the walk see one set of
    // counts while other threads keep observing.
    std::array<uint64_t, kBuckets> counts;
    uint64_t cnt = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        counts[i] = buckets[i].load(std::memory_order_relaxed);
        cnt += counts[i];
    }
    p = std::clamp(p, 0.0, 100.0);

    // Rank in [0, cnt); walk buckets until the cumulative count
    // covers it, then interpolate linearly inside that bucket.
    const double rank = p / 100.0 * static_cast<double>(cnt);
    uint64_t seen = 0;
    double v = 0.0;
    for (size_t i = 0; i < kBuckets; ++i) {
        const uint64_t in_bucket = counts[i];
        if (in_bucket == 0)
            continue;
        const double bucket_lo =
            i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
        const double bucket_hi =
            i == 0 ? 0.0
                   : (i >= 64 ? 2.0 * static_cast<double>(1ull << 63)
                              : static_cast<double>(1ull << i));
        if (static_cast<double>(seen + in_bucket) >= rank) {
            const double frac =
                (rank - static_cast<double>(seen)) /
                static_cast<double>(in_bucket);
            v = bucket_lo + frac * (bucket_hi - bucket_lo);
            break;
        }
        seen += in_bucket;
        v = bucket_hi;
    }
    // The observed extremes always bound the estimate, which makes
    // single-valued histograms exact.
    v = std::max(v, static_cast<double>(vmin));
    return std::min(v, static_cast<double>(vmax));
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.count = count();
    s.sum = sum();
    if (s.count == 0)
        return s;
    s.min = lo.load(std::memory_order_relaxed);
    s.max = hi.load(std::memory_order_relaxed);
    s.mean = static_cast<double>(s.sum) / static_cast<double>(s.count);
    s.p50 = percentile(50.0);
    s.p90 = percentile(90.0);
    s.p99 = percentile(99.0);
    s.p999 = percentile(99.9);
    return s;
}

// --- Registry --------------------------------------------------------

Registry::Registry()
    : start(std::chrono::steady_clock::now())
{
}

Registry &
Registry::instance()
{
    // Leaked on purpose: metric handles resolved anywhere in the
    // process (including other static-duration objects) must outlive
    // every user, and atexit-ordered destruction cannot guarantee that.
    static Registry *the = new Registry();
    return *the;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = counterMap[name];
    if (slot == nullptr)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = gaugeMap[name];
    if (slot == nullptr)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = histogramMap[name];
    if (slot == nullptr)
        slot = std::make_unique<Histogram>();
    return *slot;
}

uint64_t
Registry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = counterMap.find(name);
    return it == counterMap.end() ? 0 : it->second->value();
}

void
Registry::setRunField(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mu);
    manifest[key] = value;
}

std::map<std::string, std::string>
Registry::runFields() const
{
    std::lock_guard<std::mutex> lock(mu);
    return manifest;
}

double
Registry::wallSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::vector<std::pair<std::string, uint64_t>>
Registry::counters() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counterMap.size());
    for (const auto &[name, c] : counterMap)
        out.emplace_back(name, c->value());
    return out;
}

std::vector<std::pair<std::string, double>>
Registry::gauges() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gaugeMap.size());
    for (const auto &[name, g] : gaugeMap)
        out.emplace_back(name, g->value());
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::histograms() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histogramMap.size());
    for (const auto &[name, h] : histogramMap)
        out.emplace_back(name, h->snapshot());
    return out;
}

void
Registry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &[name, c] : counterMap)
        c->reset();
    for (auto &[name, g] : gaugeMap)
        g->reset();
    for (auto &[name, h] : histogramMap)
        h->reset();
    manifest.clear();
}

Counter &
counter(const std::string &name)
{
    return Registry::instance().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return Registry::instance().gauge(name);
}

Histogram &
histogram(const std::string &name)
{
    return Registry::instance().histogram(name);
}

} // namespace bpnsp::obs
