/**
 * @file
 * Status and error reporting helpers, in the spirit of gem5's logging.hh.
 *
 * fatal() is for user errors (bad configuration, invalid arguments) and
 * exits with status 1. panic() is for internal invariant violations and
 * aborts. warn()/inform() report conditions without stopping.
 *
 * warn() and inform() respect a verbosity level, read once from the
 * BPNSP_LOG_LEVEL environment variable ("quiet" silences both, "warn"
 * silences inform() only, "info" — the default — prints both), so CI
 * logs can drop cache chatter without touching per-binary flags.
 * fatal()/panic() always print.
 */

#ifndef BPNSP_UTIL_LOGGING_HPP
#define BPNSP_UTIL_LOGGING_HPP

#include <sstream>
#include <string>

namespace bpnsp {

/** Verbosity of warn()/inform(); higher prints more. */
enum class LogLevel { Quiet = 0, Warn = 1, Info = 2 };

/**
 * The effective log level: the last setLogLevel() value, else
 * BPNSP_LOG_LEVEL (quiet|warn|info), else Info.
 */
LogLevel logLevel();

/** Override the log level (takes precedence over the environment). */
void setLogLevel(LogLevel level);

namespace detail {

/** Terminate with exit(1) after printing a "fatal:" message. */
[[noreturn]] void fatalImpl(const std::string &msg);

/** Terminate with abort() after printing a "panic:" message. */
[[noreturn]] void panicImpl(const std::string &msg);

/** Print a "warn:" message to stderr. */
void warnImpl(const std::string &msg);

/** Print an "info:" message to stderr. */
void informImpl(const std::string &msg);

/** Concatenate a parameter pack into one string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Report an unrecoverable user-level error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report an internal invariant violation and abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** panic() unless the given condition holds. */
#define BPNSP_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::bpnsp::panic("assertion failed: ", #cond, " ", __FILE__,     \
                           ":", __LINE__, " ", ##__VA_ARGS__);             \
        }                                                                  \
    } while (0)

} // namespace bpnsp

#endif // BPNSP_UTIL_LOGGING_HPP
