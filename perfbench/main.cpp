/**
 * @file
 * perfbench: the repository benchmark runner.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --served <path to bpnsp_served>
 *
 * Runs one workload in this process (the serve_mix daemon is a child
 * process) from the current directory, which holds its scratch files.
 * With --trace 0 it prints the end-to-end metrics, with --trace 1 the
 * per-layer ledger. A readable table (name, value, unit, samples) comes
 * first; the last line of stdout is one JSON object. The exit code is
 * non-zero when any output check failed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
mixMinstrPerSecond(const std::vector<Cell> &cells)
{
    double instructions = 0.0;
    double seconds = 0.0;
    for (const Cell &c : cells) {
        if (c.seconds.size() < kMinCellSamples)
            return 0.0;
        instructions += c.instructions;
        seconds += percentile(c.seconds, kCellQuantile);
    }
    return seconds > 0.0 ? instructions / seconds / 1e6 : 0.0;
}

std::vector<double>
closedLoop(double seconds, size_t min_calls,
           const std::function<void()> &fn)
{
    std::vector<double> calls;
    const auto start = Clock::now();
    for (;;) {
        const double elapsed = secondsSince(start);
        if ((elapsed >= seconds && calls.size() >= min_calls) ||
            elapsed >= 4 * seconds)
            break;
        const auto t0 = Clock::now();
        fn();
        calls.push_back(secondsSince(t0));
    }
    return calls;
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<ipc_sweep|characterize|trace_replay|serve_mix> "
                 "--seed <n> --seconds <s> --trace <0|1> --served "
                 "<bpnsp_served>\n",
                 why);
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig cfg;
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            usage("arguments come in --name value pairs");
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0)
        usage("arguments come in --name value pairs");
    for (const char *need : {"workload", "seed", "seconds", "trace",
                             "served"})
        if (!args.count(need))
            usage((std::string("missing --") + need).c_str());
    cfg.workload = args["workload"];
    cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    cfg.seconds = std::strtod(args["seconds"].c_str(), nullptr);
    cfg.trace = args["trace"] == "1";
    cfg.served = args["served"];
    if (!(cfg.seconds > 0.0))
        usage("--seconds must be positive");
    return cfg;
}

/** JSON number with every digit; non-finite values are refused. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunConfig cfg = parseArgs(argc, argv);

    RunResult result;
    if (cfg.workload == "ipc_sweep")
        result = runIpcSweep(cfg);
    else if (cfg.workload == "characterize")
        result = runCharacterize(cfg);
    else if (cfg.workload == "trace_replay")
        result = runTraceReplay(cfg);
    else if (cfg.workload == "serve_mix")
        result = runServeMix(cfg);
    else
        usage("unknown workload");

    for (Metric &m : result.metrics)
        if (!std::isfinite(m.value)) {
            result.mismatch(m.name + " is not a finite number");
            m.value = -1.0;
        }

    std::printf("workload %s  seed %llu  %s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                cfg.trace ? "per-layer (traced run)"
                          : "end-to-end (untraced run)");
    for (const std::vector<Metric> *list : {&result.metrics, &result.extra})
        for (const Metric &m : *list)
            std::printf("  %-40s %16.6f %-9s n=%llu\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
    const double errorRate =
        result.attempted == 0
            ? 1.0
            : static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted);
    std::printf("  %-40s %16.6f %-9s n=%llu\n", "error_rate", errorRate,
                "fraction",
                static_cast<unsigned long long>(result.attempted));
    for (const std::string &why : result.mismatches)
        std::printf("  CHECK FAILED: %s\n", why.c_str());

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(std::max<uint64_t>(
                           result.attempted, 1)) +
                       ", \"failed\": " + std::to_string(result.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : result.metrics) {
        json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
