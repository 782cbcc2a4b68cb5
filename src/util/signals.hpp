/**
 * @file
 * Shared SIGINT/SIGTERM graceful-drain handling.
 *
 * Every long-lived binary in this repository wants the same signal
 * discipline: the *first* SIGINT/SIGTERM fires the process-global
 * cancel token (util/cancel.hpp) so cooperative loops unwind, and the
 * *second* force-exits immediately (128+sig) because the user means
 * *now*. What happens between those two events differs by binary:
 *
 *  - One-shot binaries (benches, examples) want a last-gasp hook that
 *    flushes the pending --metrics-out run report and re-raises, so a
 *    Ctrl-C'd run still leaves its telemetry behind
 *    (obs::installSignalHandlers registers that hook here).
 *  - Supervisors (`bpnsp_campaign`, `bpnsp_served`) own their drain:
 *    the first signal only fires the token; the supervisor finishes
 *    in-flight work, flushes journals/reports itself, and exits with
 *    an honest status. That is *drain mode*.
 *
 * This helper owns the sigaction plumbing, the signal counting, and
 * the mode switch, so the two supervisors and the obs layer share one
 * handler instead of each installing their own. The handler itself
 * only touches async-signal-safe state (atomics and the registered
 * hook's own discipline); see obs/report.cpp for the rationale behind
 * the deliberately non-signal-safe report-flush hook.
 */

#ifndef BPNSP_UTIL_SIGNALS_HPP
#define BPNSP_UTIL_SIGNALS_HPP

namespace bpnsp::signals {

/**
 * Hook invoked from the handler on the first signal when drain mode is
 * off. After the hook returns, the handler re-raises the signal with
 * default disposition, so the exit status reports the signal honestly.
 * The hook must tolerate running in signal context.
 */
using FirstSignalHook = void (*)(int sig);

/**
 * Install the shared SIGINT/SIGTERM handler (idempotent). First
 * signal: fire the global cancel token with CancelCause::Signal, then
 * either return (drain mode) or run the hook and re-raise. Second
 * signal: _Exit(128+sig) unconditionally.
 */
void installHandlers();

/** Register the first-signal hook (nullptr clears). */
void setFirstSignalHook(FirstSignalHook hook);

/**
 * Drain mode: when on, the first signal only fires the cancel token —
 * the caller owns finishing in-flight work, flushing state, and
 * exiting. Off (the default), the first signal runs the hook and dies.
 */
void setDrainMode(bool graceful);

/** installHandlers() + setDrainMode(true), for supervisors. */
void installGracefulDrain();

/** Signals observed since install (0 = none yet). */
int firedCount();

/** The most recent signal number delivered (0 = none yet). */
int lastSignal();

} // namespace bpnsp::signals

#endif // BPNSP_UTIL_SIGNALS_HPP
