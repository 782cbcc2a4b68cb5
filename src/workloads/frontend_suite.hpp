/**
 * @file
 * Frontend-stress workloads: indirect control flow the BTB/RAS/ITTAGE
 * subsystem exists to predict.
 *
 * Two additions, deliberately kept OUT of specSuite()/lcfSuite() so
 * every historical figure keeps its exact workload population:
 *
 *  - vcall: an LCF application (buildLcfApp) whose dispatcher calls
 *    through a function-pointer table (`callr`) instead of a branch
 *    tree, plus periodic deep recursion that overflows a default-depth
 *    RAS. Models virtual-call-saturated server code.
 *  - interp_like: a bytecode interpreter main loop — computed goto
 *    (`jmpr`) through a handler table, driven by an input-specific
 *    bytecode stream with phrase-level repetition that history-based
 *    indirect predictors can learn but a last-target table cannot.
 */

#ifndef BPNSP_WORKLOADS_FRONTEND_SUITE_HPP
#define BPNSP_WORKLOADS_FRONTEND_SUITE_HPP

#include <vector>

#include "workloads/workload.hpp"

namespace bpnsp {

/** The two frontend-stress workloads (vcall, interp_like). */
std::vector<Workload> frontendSuite();

} // namespace bpnsp

#endif // BPNSP_WORKLOADS_FRONTEND_SUITE_HPP
