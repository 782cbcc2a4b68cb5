/**
 * @file
 * Cooperative cancellation and deadlines for long-running work.
 *
 * A CancelToken is a small shared flag + optional deadline that
 * delivery loops poll at coarse granularity (core::runner checks every
 * ~256K delivered instructions, tracestore replay between chunks).
 * Cancellation is always *cooperative*: nothing is killed, the loop
 * notices the token and unwinds with Status::Cancelled or
 * Status::DeadlineExceeded through the normal error taxonomy, so
 * journals, run reports, and cache state stay consistent.
 *
 * Tokens chain: a token constructed with a parent reports the parent's
 * cancellation too, which is how a campaign composes "this cell's
 * deadline" on top of "the whole campaign was interrupted" — firing
 * the cell token abandons one cell, firing the campaign (or global)
 * token abandons everything downstream.
 *
 * The *global* token is the process-wide root: the first SIGINT or
 * SIGTERM requests cancellation on it (see obs/report.hpp signal
 * handling), so every instrumented loop in the process drains
 * gracefully. Library code that wants to honor cancellation without
 * signature churn reads the *current* token — a thread-local pointer
 * defaulting to the global token that callers override with a
 * CancelScope around a unit of work. Worker threads do NOT inherit the
 * spawning thread's scope; code that hands work to other threads (the
 * serve worker pool) installs a CancelScope inside each worker.
 *
 * Cost when idle: one relaxed atomic load per poll for an unarmed
 * token, plus one steady_clock read when a deadline is armed — cheap
 * enough that polling sites never need to be gated.
 */

#ifndef BPNSP_UTIL_CANCEL_HPP
#define BPNSP_UTIL_CANCEL_HPP

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.hpp"

namespace bpnsp {

/** Why a token fired (stable names, usable from signal handlers). */
enum class CancelCause : uint8_t
{
    None = 0,
    User,       ///< explicit requestCancel() call
    Signal,     ///< SIGINT/SIGTERM (via the global token)
    Deadline,   ///< armed deadline expired
};

/** Stable human-readable name of a cause ("signal", "deadline", ...). */
const char *cancelCauseName(CancelCause cause);

/**
 * Shared cancellation flag + optional deadline, pollable from any
 * thread. All members are async-signal-safe except the constructor;
 * requestCancel() in particular is a single relaxed atomic store, so
 * signal handlers may call it directly.
 */
class CancelToken
{
  public:
    /** @param parent checked first by every poll (not owned). */
    explicit CancelToken(CancelToken *parent = nullptr)
        : chain(parent)
    {
    }

    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Fire the token (idempotent; first cause wins). */
    void
    requestCancel(CancelCause why = CancelCause::User)
    {
        uint8_t expected = 0;
        firedCause.compare_exchange_strong(
            expected, static_cast<uint8_t>(why),
            std::memory_order_relaxed);
    }

    /**
     * Arm a deadline: polls at or after this instant report
     * DeadlineExceeded. Re-arming replaces the previous deadline;
     * kNoDeadline disarms.
     */
    void
    setDeadline(std::chrono::steady_clock::time_point when)
    {
        deadlineNs.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                when.time_since_epoch())
                .count(),
            std::memory_order_relaxed);
    }

    /** Arm a deadline `ms` milliseconds from now (0 disarms). */
    void setDeadlineAfterMs(uint64_t ms);

    /** Disarm the deadline and clear the fired state (reuse/tests). */
    void
    reset()
    {
        firedCause.store(0, std::memory_order_relaxed);
        deadlineNs.store(kNoDeadline, std::memory_order_relaxed);
    }

    /**
     * True once this token (or an ancestor) fired or its deadline
     * passed. An expired deadline latches into the fired state, so the
     * cause survives later disarming.
     */
    bool
    cancelled() const
    {
        if (chain != nullptr && chain->cancelled())
            return true;
        if (firedCause.load(std::memory_order_relaxed) != 0)
            return true;
        return deadlineExpired();
    }

    /**
     * Poll: Ok while live, Status::Cancelled /
     * Status::DeadlineExceeded once fired, with the cause in the
     * message. Ancestors are polled first, so a campaign-wide
     * interrupt outranks a cell deadline that expired at the same
     * moment.
     */
    Status check() const;

    /** The first cause that fired this token (None while live). */
    CancelCause
    cause() const
    {
        if (chain != nullptr && chain->cause() != CancelCause::None)
            return chain->cause();
        if (deadlineExpired()) {
            // Latch so cause() and check() agree from now on.
            const_cast<CancelToken *>(this)->requestCancel(
                CancelCause::Deadline);
        }
        return static_cast<CancelCause>(
            firedCause.load(std::memory_order_relaxed));
    }

    /** The parent this token chains to (nullptr for a root). */
    CancelToken *parent() const { return chain; }

    static constexpr int64_t kNoDeadline = INT64_MAX;

  private:
    bool
    deadlineExpired() const
    {
        const int64_t dl = deadlineNs.load(std::memory_order_relaxed);
        if (dl == kNoDeadline)
            return false;
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count() >= dl;
    }

    CancelToken *const chain;
    std::atomic<uint8_t> firedCause{0};
    std::atomic<int64_t> deadlineNs{kNoDeadline};
};

/**
 * The process-wide root token. Signal handlers fire it with
 * CancelCause::Signal; every runner/replay loop that has no narrower
 * scope installed polls it by default.
 */
CancelToken &globalCancelToken();

/**
 * The token the calling thread's work should honor: the innermost
 * CancelScope, or the global token when none is active. Never nullptr.
 */
CancelToken *currentCancelToken();

/**
 * RAII thread-local override of currentCancelToken(). Campaign cells,
 * serve workers and tests wrap their work in a scope so library code
 * deep below observes the narrowest token without parameter plumbing.
 */
class CancelScope
{
  public:
    explicit CancelScope(CancelToken &token);
    ~CancelScope();

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    CancelToken *saved;
};

/**
 * Sleep for `ms`, waking early (and returning the token's status) if
 * the current cancel token fires. Used by retry backoff so a
 * campaign interrupt never waits out a backoff window.
 */
Status cancellableSleepMs(uint64_t ms);

} // namespace bpnsp

#endif // BPNSP_UTIL_CANCEL_HPP
