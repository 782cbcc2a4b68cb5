#include "faultsim/faultsim.hpp"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace bpnsp::faultsim {

namespace detail {

std::atomic<bool> gActive{false};

} // namespace detail

namespace {

constexpr uint64_t kDefaultSeed = 0xfa017u;

/** Firing rules and runtime state of one configured failpoint. */
struct Point
{
    double prob = 1.0;
    uint64_t maxFires = UINT64_MAX;
    uint64_t skip = 0;
    uint64_t evaluated = 0;
    uint64_t fired = 0;
    Rng rng{0};
};

std::mutex gMutex;
std::map<std::string, Point> gPoints;
std::string gSpec;

/** Strict non-negative integer parse; false on junk or empty. */
bool
parseUint(const std::string &text, uint64_t *value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *value = v;
    return true;
}

/** Strict probability parse into (0, 1]; false otherwise. */
bool
parseProb(const std::string &text, double *value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !(v > 0.0) || v > 1.0)
        return false;
    *value = v;
    return true;
}

/**
 * Parse a full spec into (seed, points); InvalidArgument names the
 * offending clause on any grammar violation.
 */
Status
parseSpec(const std::string &spec, uint64_t *seed,
          std::map<std::string, Point> *points)
{
    size_t begin = 0;
    while (begin <= spec.size()) {
        size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string clause = spec.substr(begin, end - begin);
        begin = end + 1;
        if (clause.empty())
            continue;

        if (clause.rfind("seed=", 0) == 0) {
            if (!parseUint(clause.substr(5), seed)) {
                return Status::invalidArgument(
                    "bad seed in fault spec clause '" + clause + "'");
            }
            continue;
        }

        Point point;
        std::string name = clause;
        // Strip @PROB / *MAXFIRES / +SKIP suffixes, any order.
        while (true) {
            const size_t mark = name.find_last_of("@*+");
            if (mark == std::string::npos)
                break;
            const char kind = name[mark];
            const std::string arg = name.substr(mark + 1);
            name = name.substr(0, mark);
            bool ok = false;
            if (kind == '@')
                ok = parseProb(arg, &point.prob);
            else if (kind == '*')
                ok = parseUint(arg, &point.maxFires);
            else
                ok = parseUint(arg, &point.skip);
            if (!ok) {
                return Status::invalidArgument(
                    std::string("bad '") + kind +
                    "' argument in fault spec clause '" + clause + "'");
            }
        }
        if (name.empty() ||
            name.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz0123456789._-") !=
                std::string::npos) {
            return Status::invalidArgument(
                "bad failpoint name in fault spec clause '" + clause +
                "'");
        }
        (*points)[name] = point;   // last clause for a name wins
    }
    return Status();
}

/** Install a parsed spec under the lock. */
void
installLocked(const std::string &spec, uint64_t seed,
              std::map<std::string, Point> &&points)
{
    gSpec = spec;
    gPoints = std::move(points);
    // Per-point streams derive from (seed, point name) through the
    // shared audited scheme (util/rng.hpp), so a given (seed, spec)
    // reproduces the exact same failure schedule regardless of how
    // other points interleave.
    for (auto &[name, point] : gPoints)
        point.rng = Rng::stream(seed, name);
    detail::gActive.store(!gPoints.empty(),
                          std::memory_order_relaxed);
}

} // namespace

namespace detail {

bool
evaluateSlow(const char *point)
{
    static obs::Counter &injected = obs::counter("faultsim.injected");

    std::lock_guard<std::mutex> lock(gMutex);
    const auto it = gPoints.find(point);
    if (it == gPoints.end())
        return false;
    Point &p = it->second;
    ++p.evaluated;
    if (p.evaluated <= p.skip)
        return false;
    if (p.fired >= p.maxFires)
        return false;
    if (p.prob < 1.0 && !p.rng.chance(p.prob))
        return false;
    ++p.fired;
    injected.inc();
    inform("faultsim: injecting ", point, " (fire #", p.fired, " of ",
           p.evaluated, " evaluations)");
    return true;
}

} // namespace detail

Status
configure(const std::string &spec)
{
    uint64_t seed = kDefaultSeed;
    std::map<std::string, Point> points;
    const Status st = parseSpec(spec, &seed, &points);

    std::lock_guard<std::mutex> lock(gMutex);
    if (!st.ok()) {
        // A malformed spec must not leave stale faults active.
        installLocked("", kDefaultSeed, {});
        return st;
    }
    installLocked(points.empty() ? std::string() : spec, seed,
                  std::move(points));
    return Status();
}

void
configureFromOptions(const OptionParser &opts)
{
    const Status st = configure(opts.getString("faults"));
    if (!st.ok())
        fatal("--faults: ", st.str());
    obs::Registry::instance().setRunField("faults", activeSpec());
    if (active())
        warn("fault injection active: ", activeSpec());
}

void
reset()
{
    std::lock_guard<std::mutex> lock(gMutex);
    installLocked("", kDefaultSeed, {});
}

bool
active()
{
    return detail::gActive.load(std::memory_order_relaxed);
}

std::string
activeSpec()
{
    std::lock_guard<std::mutex> lock(gMutex);
    return gSpec;
}

uint64_t
evaluatedCount(const std::string &point)
{
    std::lock_guard<std::mutex> lock(gMutex);
    const auto it = gPoints.find(point);
    return it == gPoints.end() ? 0 : it->second.evaluated;
}

uint64_t
firedCount(const std::string &point)
{
    std::lock_guard<std::mutex> lock(gMutex);
    const auto it = gPoints.find(point);
    return it == gPoints.end() ? 0 : it->second.fired;
}

uint64_t
firedTotal()
{
    std::lock_guard<std::mutex> lock(gMutex);
    uint64_t total = 0;
    for (const auto &[name, point] : gPoints)
        total += point.fired;
    return total;
}

uint64_t
payloadDraw(const char *point)
{
    std::lock_guard<std::mutex> lock(gMutex);
    const auto it = gPoints.find(point);
    if (it == gPoints.end())
        return 0;
    return it->second.rng.next();
}

std::vector<std::pair<std::string, uint64_t>>
firedCounts()
{
    std::lock_guard<std::mutex> lock(gMutex);
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const auto &[name, point] : gPoints)
        if (point.fired > 0)
            out.emplace_back(name, point.fired);
    return out;
}

} // namespace bpnsp::faultsim
