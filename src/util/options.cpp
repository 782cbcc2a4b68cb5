#include "util/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hpp"

namespace bpnsp {

OptionParser::OptionParser(std::string description)
    : desc(std::move(description))
{
    // Standard options, available in every binary. The parser only
    // records them; obs::configureFromOptions() and
    // faultsim::configureFromOptions() (called by each main after
    // parse()) activate the report and the fault plan.
    addString("metrics-out", "",
              "write a JSON run report (metrics + run manifest) to "
              "this file on exit");
    addString("faults", "",
              "deterministic fault-injection spec, "
              "e.g. seed=7,tracestore.read.bitflip@0.01*2; see "
              "DESIGN.md \"Robustness\"");
}

void
OptionParser::addInt(const std::string &name, int64_t def,
                     const std::string &help)
{
    options[name] = Option{Kind::Int, help, std::to_string(def)};
}

void
OptionParser::addDouble(const std::string &name, double def,
                        const std::string &help)
{
    std::ostringstream oss;
    oss << def;
    options[name] = Option{Kind::Double, help, oss.str()};
}

void
OptionParser::addString(const std::string &name, const std::string &def,
                        const std::string &help)
{
    options[name] = Option{Kind::String, help, def};
}

void
OptionParser::addFlag(const std::string &name, const std::string &help)
{
    options[name] = Option{Kind::Flag, help, "0"};
}

std::string
OptionParser::usage() const
{
    std::ostringstream oss;
    oss << desc << "\n\nOptions:\n";
    for (const auto &[name, opt] : options) {
        oss << "  --" << name;
        if (opt.kind != Kind::Flag)
            oss << "=<value>";
        oss << "\n      " << opt.help
            << " (default: " << opt.value << ")\n";
    }
    oss << "  --help\n      Show this message.\n";
    return oss.str();
}

void
OptionParser::parse(int argc, const char *const *argv)
{
    if (argc > 0)
        programName = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("%s\n", usage().c_str());
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected positional argument: ", arg);
        arg = arg.substr(2);
        std::string name = arg;
        std::string value;
        bool have_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            have_value = true;
        }
        auto it = options.find(name);
        if (it == options.end())
            fatal("unknown option --", name, "\n", usage());
        Option &opt = it->second;
        if (opt.kind == Kind::Flag) {
            if (have_value)
                fatal("flag --", name, " does not take a value");
            opt.value = "1";
            continue;
        }
        if (!have_value) {
            if (i + 1 >= argc)
                fatal("option --", name, " requires a value");
            value = argv[++i];
        }
        // Validate numeric forms eagerly for a clear error message.
        if (opt.kind == Kind::Int) {
            char *end = nullptr;
            std::strtoll(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                fatal("option --", name, " expects an integer, got: ",
                      value);
        } else if (opt.kind == Kind::Double) {
            char *end = nullptr;
            std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                fatal("option --", name, " expects a number, got: ",
                      value);
        }
        opt.value = value;
    }
}

const OptionParser::Option &
OptionParser::find(const std::string &name, Kind kind) const
{
    auto it = options.find(name);
    BPNSP_ASSERT(it != options.end(), "unregistered option: ", name);
    BPNSP_ASSERT(it->second.kind == kind, "option kind mismatch: ", name);
    return it->second;
}

int64_t
OptionParser::getInt(const std::string &name) const
{
    return std::strtoll(find(name, Kind::Int).value.c_str(), nullptr, 10);
}

double
OptionParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

const std::string &
OptionParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

bool
OptionParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag).value == "1";
}

} // namespace bpnsp
