/**
 * @file
 * Recoverable-error taxonomy for the storage and replay layers.
 *
 * fatal()/panic() (util/logging.hpp) remain the right tools for user
 * errors and internal invariant violations; Status is for conditions a
 * caller can reasonably recover from — a corrupt cache entry that can
 * be regenerated, a server past its admission bound, an injected I/O
 * fault. Carrying the category in-band (instead of a bare diagnostic
 * string) lets callers branch on *what went wrong*: CorruptData
 * quarantines and regenerates, Busy asks the client to retry later,
 * IoError retries with backoff.
 *
 * The taxonomy is deliberately small:
 *  - IoError      — the OS refused or truncated an I/O operation
 *                   (ENOSPC, EIO, missing file, failed rename).
 *  - CorruptData  — bytes were read but fail validation (bad magic,
 *                   checksum mismatch, index inconsistency).
 *  - Busy         — the resource is not available right now (a
 *                   draining server, a corpus entry that was not
 *                   published); retry later.
 *  - Cancelled    — the operation was abandoned mid-flight (injected
 *                   crash, writer already failed, cooperative
 *                   cancellation via util/cancel.hpp).
 *  - DeadlineExceeded — a deadline or wall budget expired before the
 *                   operation finished (per-cell --deadline-ms,
 *                   campaign --budget-wall-ms).
 *  - InvalidArgument — the caller asked for something impossible
 *                   (range past end of store, malformed fault spec).
 */

#ifndef BPNSP_UTIL_STATUS_HPP
#define BPNSP_UTIL_STATUS_HPP

#include <cstdint>
#include <string>
#include <utility>

namespace bpnsp {

/** What category of failure a non-ok Status reports. */
enum class StatusCode : uint8_t
{
    Ok = 0,
    IoError,
    CorruptData,
    Busy,
    Cancelled,
    DeadlineExceeded,
    InvalidArgument,
};

/** Stable human-readable name of a code ("CorruptData", ...). */
const char *statusCodeName(StatusCode code);

/**
 * A status code plus diagnostic message. Default-constructed Status is
 * Ok; factory functions build the failure categories. Cheap to copy
 * when ok (empty message).
 */
class Status
{
  public:
    Status() = default;

    static Status
    make(StatusCode code, std::string message)
    {
        Status s;
        s.c = code;
        s.msg = std::move(message);
        return s;
    }

    /** @name Factories, one per failure category. */
    /// @{
    static Status
    ioError(std::string message)
    {
        return make(StatusCode::IoError, std::move(message));
    }

    static Status
    corruptData(std::string message)
    {
        return make(StatusCode::CorruptData, std::move(message));
    }

    static Status
    busy(std::string message)
    {
        return make(StatusCode::Busy, std::move(message));
    }

    static Status
    cancelled(std::string message)
    {
        return make(StatusCode::Cancelled, std::move(message));
    }

    static Status
    deadlineExceeded(std::string message)
    {
        return make(StatusCode::DeadlineExceeded, std::move(message));
    }

    static Status
    invalidArgument(std::string message)
    {
        return make(StatusCode::InvalidArgument, std::move(message));
    }
    /// @}

    bool ok() const { return c == StatusCode::Ok; }
    StatusCode code() const { return c; }
    const std::string &message() const { return msg; }

    /** "CorruptData: payload checksum mismatch ..." ("ok" when ok). */
    std::string str() const;

    /**
     * Keep the first failure: adopt `other` only when this Status is
     * still ok. Lets sequential pipelines accumulate into one Status
     * without clobbering the root cause.
     */
    void
    update(const Status &other)
    {
        if (ok() && !other.ok())
            *this = other;
    }

  private:
    StatusCode c = StatusCode::Ok;
    std::string msg;
};

} // namespace bpnsp

#endif // BPNSP_UTIL_STATUS_HPP
