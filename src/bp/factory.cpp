#include "bp/factory.hpp"

#include "bp/oracle.hpp"
#include "bp/simple.hpp"
#include "bp/tagescl.hpp"
#include "util/logging.hpp"

namespace bpnsp {

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &name)
{
    if (name == "always-taken")
        return std::make_unique<StaticPredictor>(true);
    if (name == "always-not-taken")
        return std::make_unique<StaticPredictor>(false);
    if (name == "bimodal")
        return std::make_unique<BimodalPredictor>();
    if (name == "gshare")
        return std::make_unique<GsharePredictor>();
    if (name == "perfect")
        return std::make_unique<PerfectPredictor>();

    const std::string tage_prefix = "tage-";
    const std::string tscl_prefix = "tage-sc-l-";
    if (name.rfind(tscl_prefix, 0) == 0) {
        const std::string kb_str =
            name.substr(tscl_prefix.size(),
                        name.size() - tscl_prefix.size() - 2);
        const unsigned kb =
            static_cast<unsigned>(std::stoul(kb_str));
        return std::make_unique<TageSclPredictor>(
            TageSclConfig::preset(kb));
    }
    if (name.rfind(tage_prefix, 0) == 0) {
        const std::string kb_str = name.substr(
            tage_prefix.size(), name.size() - tage_prefix.size() - 2);
        const unsigned kb =
            static_cast<unsigned>(std::stoul(kb_str));
        return std::make_unique<TagePredictor>(TageConfig::preset(kb));
    }
    fatal("unknown predictor name: ", name);
}

std::vector<std::string>
knownPredictorNames()
{
    return {
        "always-taken",    "always-not-taken", "bimodal",
        "gshare",          "tage-8KB",         "tage-64KB",
        "tage-sc-l-8KB",   "tage-sc-l-64KB",   "tage-sc-l-128KB",
        "tage-sc-l-256KB", "tage-sc-l-512KB",  "tage-sc-l-1024KB",
        "perfect",
    };
}

} // namespace bpnsp
