#include "synth/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/fsutil.hpp"
#include "util/hash.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"

namespace bpnsp::synth {

namespace {

/**
 * Exact canonical JSON number: integral values (the common case —
 * counts and bin edges) print without a fraction, everything else
 * prints with enough digits to round-trip the double bit-exactly.
 * Canonical formatting is what makes render -> parse -> render
 * byte-identical.
 */
std::string
canonicalNumber(double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308)
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Minimal canonical string escape (quote, backslash, control). */
std::string
escapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

void
renderDoubleArray(std::ostringstream &oss,
                  const std::vector<double> &values)
{
    oss << "[";
    for (size_t i = 0; i < values.size(); ++i)
        oss << (i == 0 ? "" : ",") << canonicalNumber(values[i]);
    oss << "]";
}

void
renderDist(std::ostringstream &oss, const char *key,
           const DistSpec &dist)
{
    oss << "      \"" << key << "\": {\"edges\": ";
    renderDoubleArray(oss, dist.edges);
    oss << ", \"fractions\": ";
    renderDoubleArray(oss, dist.fractions);
    oss << ", \"samples\": " << dist.samples << "}";
}

Status
parseDoubleArray(const JsonValue &v, const char *what,
                 std::vector<double> *out)
{
    if (!v.isArray())
        return Status::invalidArgument(std::string("profile: ") + what +
                                       " is not an array");
    out->clear();
    for (const JsonValue &item : v.items()) {
        if (!item.isNumber())
            return Status::invalidArgument(std::string("profile: ") +
                                           what + " holds a non-number");
        out->push_back(item.asDouble());
    }
    return Status();
}

Status
parseDist(const JsonValue &branch, const char *key, DistSpec *out)
{
    const JsonValue &v = branch.get(key);
    if (!v.isObject())
        return Status::invalidArgument(
            std::string("profile: missing branch distribution '") + key +
            "'");
    if (Status st = parseDoubleArray(v.get("edges"), key, &out->edges);
        !st.ok())
        return st;
    if (Status st =
            parseDoubleArray(v.get("fractions"), key, &out->fractions);
        !st.ok())
        return st;
    out->samples = v.get("samples").asUint();
    if (!out->valid())
        return Status::invalidArgument(
            std::string("profile: malformed distribution '") + key +
            "' (edges must increase, one fraction per bin)");
    return Status();
}

} // namespace

DistSpec
DistSpec::fromHistogram(const Histogram &hist)
{
    DistSpec spec;
    spec.samples = hist.total();
    spec.edges.reserve(hist.numBins() + 1);
    spec.fractions.reserve(hist.numBins());
    for (size_t i = 0; i < hist.numBins(); ++i) {
        spec.edges.push_back(hist.binLo(i));
        spec.fractions.push_back(hist.fraction(i));
    }
    spec.edges.push_back(hist.binHi(hist.numBins() - 1));
    return spec;
}

double
DistSpec::sample(Rng &rng) const
{
    if (edges.size() < 2)
        return 0.0;
    if (samples == 0)
        return (edges.front() + edges.back()) / 2.0;
    const double u = rng.uniform();
    double cumulative = 0.0;
    size_t bin = fractions.size() - 1;
    for (size_t i = 0; i < fractions.size(); ++i) {
        cumulative += fractions[i];
        if (u < cumulative) {
            bin = i;
            break;
        }
    }
    const double lo = edges[bin];
    const double hi = edges[bin + 1];
    return lo + (hi - lo) * rng.uniform();
}

std::vector<double>
DistSpec::stratified(size_t n, Rng &rng) const
{
    std::vector<double> out;
    out.reserve(n);
    if (n == 0)
        return out;
    if (edges.size() < 2 || samples == 0) {
        for (size_t i = 0; i < n; ++i)
            out.push_back(sample(rng));
        return out;
    }
    // Largest-remainder quotas: floor allocations first, then hand the
    // leftover slots to the bins with the biggest fractional parts
    // (random jitter breaks ties so no bin is structurally favored).
    std::vector<size_t> counts(fractions.size(), 0);
    std::vector<std::pair<double, size_t>> remainders;
    size_t allocated = 0;
    for (size_t i = 0; i < fractions.size(); ++i) {
        const double quota = fractions[i] * static_cast<double>(n);
        counts[i] = static_cast<size_t>(quota);
        allocated += counts[i];
        remainders.push_back(
            {quota - std::floor(quota) + rng.uniform() * 1e-9, i});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    for (size_t r = 0; allocated < n; ++r, ++allocated)
        ++counts[remainders[r % remainders.size()].second];
    for (size_t i = 0; i < counts.size(); ++i)
        for (size_t c = 0; c < counts[i]; ++c)
            out.push_back((edges[i] + edges[i + 1]) / 2.0);
    // Fisher-Yates so the bins interleave across emission sites.
    for (size_t i = out.size() - 1; i > 0; --i)
        std::swap(out[i], out[rng.below(i + 1)]);
    return out;
}

double
DistSpec::mean() const
{
    if (edges.size() < 2 || samples == 0)
        return edges.size() < 2 ? 0.0
                                : (edges.front() + edges.back()) / 2.0;
    double sum = 0.0;
    for (size_t i = 0; i < fractions.size(); ++i)
        sum += fractions[i] * (edges[i] + edges[i + 1]) / 2.0;
    return sum;
}

double
DistSpec::massAbove(double value) const
{
    double mass = 0.0;
    for (size_t i = 0; i < fractions.size(); ++i)
        if (edges[i] >= value)
            mass += fractions[i];
    return mass;
}

bool
DistSpec::valid() const
{
    if (edges.size() < 2 || fractions.size() != edges.size() - 1)
        return false;
    for (size_t i = 0; i + 1 < edges.size(); ++i)
        if (!(edges[i] < edges[i + 1]))
            return false;
    for (const double f : fractions)
        if (!(f >= 0.0) || f > 1.0 + 1e-9)
            return false;
    return true;
}

double
distSpecDistance(const DistSpec &a, const DistSpec &b)
{
    if (a.fractions.size() != b.fractions.size())
        return 1.0;
    double tv = 0.0;
    for (size_t i = 0; i < a.fractions.size(); ++i)
        tv += std::fabs(a.fractions[i] - b.fractions[i]);
    return tv / 2.0;
}

std::string
SynthProfile::render() const
{
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"" << kSchema << "\",\n"
        << "  \"name\": \"" << escapeString(name) << "\",\n"
        << "  \"source\": {\"workload\": \""
        << escapeString(sourceWorkload) << "\", \"input\": \""
        << escapeString(sourceInput)
        << "\", \"instructions\": " << sourceInstructions << "},\n"
        << "  \"global\": {\n"
        << "    \"instructions\": " << instructions << ",\n"
        << "    \"cond_execs\": " << condExecs << ",\n"
        << "    \"cond_taken\": " << condTaken << ",\n"
        << "    \"static_cond_branches\": " << staticCondBranches
        << ",\n"
        << "    \"static_call_targets\": " << staticCallTargets << ",\n"
        << "    \"calls\": " << calls << ",\n"
        << "    \"class_mix\": {";
    bool first = true;
    for (size_t i = 0; i < classMix.size(); ++i) {
        const auto cls = static_cast<InstrClass>(i);
        oss << (first ? "" : ", ") << "\"" << instrClassName(cls)
            << "\": " << canonicalNumber(classMix[i]);
        first = false;
    }
    oss << "}\n  },\n  \"branch\": {\n";
    renderDist(oss, "taken_rate", takenRate);
    oss << ",\n";
    renderDist(oss, "history_entropy", historyEntropy);
    oss << ",\n";
    renderDist(oss, "exec_log2", execLog2);
    oss << ",\n";
    renderDist(oss, "recurrence_log2", recurrenceLog2);
    oss << ",\n";
    renderDist(oss, "fig3_executions", fig3Executions);
    oss << "\n  }\n}\n";
    return oss.str();
}

std::string
SynthProfile::digest() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(render())));
    return buf;
}

Status
SynthProfile::fromJson(const std::string &text, SynthProfile *out)
{
    *out = SynthProfile();
    JsonValue doc;
    if (Status st = JsonValue::parse(text, &doc); !st.ok())
        return st;
    if (doc.get("schema").asString() != kSchema)
        return Status::invalidArgument(
            "profile: schema is not " + std::string(kSchema) + " (got '" +
            doc.get("schema").asString() + "')");
    out->name = doc.get("name").asString();
    if (out->name.empty())
        return Status::invalidArgument("profile: missing name");

    const JsonValue &source = doc.get("source");
    out->sourceWorkload = source.get("workload").asString();
    out->sourceInput = source.get("input").asString();
    out->sourceInstructions = source.get("instructions").asUint();

    const JsonValue &global = doc.get("global");
    if (!global.isObject())
        return Status::invalidArgument("profile: missing global object");
    out->instructions = global.get("instructions").asUint();
    out->condExecs = global.get("cond_execs").asUint();
    out->condTaken = global.get("cond_taken").asUint();
    out->staticCondBranches =
        global.get("static_cond_branches").asUint();
    out->staticCallTargets = global.get("static_call_targets").asUint();
    out->calls = global.get("calls").asUint();

    const JsonValue &mix = global.get("class_mix");
    if (!mix.isObject())
        return Status::invalidArgument("profile: missing class_mix");
    for (size_t i = 0; i < out->classMix.size(); ++i) {
        const auto cls = static_cast<InstrClass>(i);
        out->classMix[i] = mix.get(instrClassName(cls)).asDouble();
        if (out->classMix[i] < 0.0 || out->classMix[i] > 1.0)
            return Status::invalidArgument(
                std::string("profile: class_mix.") + instrClassName(cls) +
                " outside [0,1]");
    }

    const JsonValue &branch = doc.get("branch");
    if (!branch.isObject())
        return Status::invalidArgument("profile: missing branch object");
    if (Status st = parseDist(branch, "taken_rate", &out->takenRate);
        !st.ok())
        return st;
    if (Status st =
            parseDist(branch, "history_entropy", &out->historyEntropy);
        !st.ok())
        return st;
    if (Status st = parseDist(branch, "exec_log2", &out->execLog2);
        !st.ok())
        return st;
    if (Status st =
            parseDist(branch, "recurrence_log2", &out->recurrenceLog2);
        !st.ok())
        return st;
    if (Status st =
            parseDist(branch, "fig3_executions", &out->fig3Executions);
        !st.ok())
        return st;
    return Status();
}

Status
SynthProfile::load(const std::string &path, SynthProfile *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::ioError("cannot open profile: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in.good() && !in.eof())
        return Status::ioError("cannot read profile: " + path);
    return fromJson(text.str(), out);
}

Status
SynthProfile::save(const std::string &path) const
{
    const std::string doc = render();
    const std::string staging = path + ".staging";
    std::FILE *f = std::fopen(staging.c_str(), "w");
    if (f == nullptr)
        return Status::ioError("cannot open for writing: " + staging);
    const bool wrote =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    Status st = wrote ? syncStream(f, staging)
                      : Status::ioError("short write: " + staging);
    if (std::fclose(f) != 0)
        st.update(Status::ioError("close failed: " + staging));
    if (!st.ok()) {
        std::remove(staging.c_str());
        return st;
    }
    st = atomicPublishFile(staging, path);
    if (!st.ok())
        std::remove(staging.c_str());
    return st;
}

} // namespace bpnsp::synth
