/**
 * @file
 * Minimal command-line option parsing for the bench and example
 * binaries. Supports --name=value, --name value, and boolean --flag.
 */

#ifndef BPNSP_UTIL_OPTIONS_HPP
#define BPNSP_UTIL_OPTIONS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bpnsp {

/**
 * Declarative command-line parser.
 *
 * Every parser pre-registers the standard telemetry option
 * --metrics-out=FILE (JSON run report on exit) and the standard
 * robustness option --faults=SPEC (deterministic fault injection);
 * binaries activate them by passing the parsed parser to
 * obs::configureFromOptions() and faultsim::configureFromOptions()
 * once after parse().
 */
class OptionParser
{
  public:
    explicit OptionParser(std::string description = "");

    /** Register an integer option with a default. */
    void addInt(const std::string &name, int64_t def,
                const std::string &help);

    /** Register a floating-point option with a default. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);

    /** Register a string option with a default. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Register a boolean flag (default false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. On --help prints usage and exits 0; on a malformed or
     * unknown option calls fatal().
     */
    void parse(int argc, const char *const *argv);

    int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    const std::string &getString(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** Usage text. */
    std::string usage() const;

    /** argv[0] as seen by parse() ("" before parse). */
    const std::string &binaryName() const { return programName; }

  private:
    enum class Kind { Int, Double, String, Flag };

    struct Option
    {
        Kind kind;
        std::string help;
        std::string value;    // canonical textual value
    };

    std::string desc;
    std::string programName;
    std::map<std::string, Option> options;

    const Option &find(const std::string &name, Kind kind) const;
};

} // namespace bpnsp

#endif // BPNSP_UTIL_OPTIONS_HPP
