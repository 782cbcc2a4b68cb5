/**
 * @file
 * Crash-safety filesystem primitives shared by the trace store layers:
 * durable flush, atomic publish (rename + directory sync), and process
 * liveness probing for staging-file garbage collection.
 *
 * The publish discipline these helpers implement is the standard
 * write-ahead pattern: finish the file under a private name, fsync its
 * bytes, rename() it onto the public name (atomic within a
 * filesystem), then fsync the containing directory so the rename
 * itself survives a crash. A reader can therefore only ever observe a
 * missing entry or a complete one — never a torn prefix.
 */

#ifndef BPNSP_UTIL_FSUTIL_HPP
#define BPNSP_UTIL_FSUTIL_HPP

#include <cstdio>
#include <string>

#include <sys/types.h>

#include "util/status.hpp"

namespace bpnsp {

/** fflush + fsync an open stdio stream (durability barrier). */
Status syncStream(std::FILE *file, const std::string &path);

/** fsync a directory so a completed rename within it is durable. */
Status syncDirectory(const std::string &dir);

/**
 * Atomically move `from` onto `to` and fsync the destination
 * directory. `from` must already be durable (see syncStream).
 */
Status atomicPublishFile(const std::string &from, const std::string &to);

/**
 * True when `pid` names a live process (kill(pid, 0) semantics:
 * EPERM still counts as alive). Used to tell crashed owners' staging
 * files from ones belonging to concurrent runs.
 */
bool processAlive(pid_t pid);

} // namespace bpnsp

#endif // BPNSP_UTIL_FSUTIL_HPP
