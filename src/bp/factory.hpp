/**
 * @file
 * Name-based predictor construction for examples and bench harnesses.
 */

#ifndef BPNSP_BP_FACTORY_HPP
#define BPNSP_BP_FACTORY_HPP

#include <memory>
#include <string>
#include <vector>

#include "bp/predictor.hpp"

namespace bpnsp {

/**
 * Construct a predictor by name. Supported names:
 *   always-taken, always-not-taken, bimodal, gshare, tage-8KB,
 *   tage-64KB, tage-sc-l-8KB, tage-sc-l-64KB, tage-sc-l-128KB,
 *   tage-sc-l-256KB, tage-sc-l-512KB, tage-sc-l-1024KB, perfect.
 * fatal() on an unknown name.
 */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &name);

/** All names accepted by makePredictor(). */
std::vector<std::string> knownPredictorNames();

} // namespace bpnsp

#endif // BPNSP_BP_FACTORY_HPP
