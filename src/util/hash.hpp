/**
 * @file
 * FNV-1a, the repository's one byte-string hash: trace-store chunk and
 * footer checksums, trace-cache and campaign keys, serve frame
 * checksums, and RNG stream derivation all use it, so a value
 * computed by one subsystem is reproducible by any other.
 */

#ifndef BPNSP_UTIL_HASH_HPP
#define BPNSP_UTIL_HASH_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bpnsp {

/** The FNV-1a 64-bit offset basis (the hash of the empty string). */
constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/**
 * FNV-1a 64-bit over a byte range. `seed` continues a running hash:
 * fnv1a(b, nb, fnv1a(a, na)) hashes the concatenation of a and b.
 */
inline uint64_t
fnv1a(const void *data, size_t len, uint64_t seed = kFnv1aBasis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * FNV-1a 64-bit over a string's bytes. Deliberately seedless: with a
 * seed, a string literal argument would bind to the byte-range
 * overload above and read the seed as a length.
 */
inline uint64_t
fnv1a(std::string_view bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

} // namespace bpnsp

#endif // BPNSP_UTIL_HASH_HPP
