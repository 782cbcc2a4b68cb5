/**
 * @file
 * The repository's two byte-string hashes, so a value computed by one
 * subsystem is reproducible by any other:
 *  - fnv1a, byte-at-a-time FNV-1a: trace-cache and campaign keys,
 *    serve frame checksums, and RNG stream derivation;
 *  - checksum64, its word-at-a-time counterpart for bulk data: the
 *    trace-store chunk and footer checksums and DigestSink.
 */

#ifndef BPNSP_UTIL_HASH_HPP
#define BPNSP_UTIL_HASH_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace bpnsp {

/** The FNV-1a 64-bit offset basis (the hash of the empty string). */
constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/** The FNV 64-bit prime; odd, so multiplying by it is a bijection. */
constexpr uint64_t kFnv1aPrime = 0x100000001b3ull;

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
        hash *= kFnv1aPrime;
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

/**
 * Word-at-a-time checksum over a byte range, for bulk data where
 * fnv1a's one multiply per byte dominates. Four independent lanes step
 * `h = (h ^ word) * kFnv1aPrime` over 8-byte words (native byte order,
 * little-endian on every supported host): the k-th word of each
 * 32-byte block goes to lane k, then the remaining whole words and a
 * zero-padded tail word go to lane 0. The lanes are folded in order
 * 0..3 with the same step and the length is mixed in last.
 *
 * Every step is a bijection of its state for a fixed word and of its
 * word for a fixed state, so any change confined to one 8-byte word
 * (every single-bit flip, in particular) changes the result. The
 * length mixed in last tells a payload from the same payload plus
 * trailing zero bytes, which the zero-padded tail word alone would
 * not. Unlike fnv1a's, the seed does not continue a hash of a
 * concatenation; it only selects a distinct, deterministic stream.
 */
inline uint64_t
checksum64(const void *data, size_t len, uint64_t seed = kFnv1aBasis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    const auto word = [bytes](size_t at) {
        uint64_t w;
        std::memcpy(&w, bytes + at, sizeof(w));
        return w;
    };
    const auto step = [](uint64_t h, uint64_t w) {
        return (h ^ w) * kFnv1aPrime;
    };
    // Distinct start states, so equal words in two lanes do not put
    // the lanes in equal states.
    uint64_t lane0 = seed;
    uint64_t lane1 = seed ^ 0x9e3779b97f4a7c15ull;
    uint64_t lane2 = seed ^ 0xc2b2ae3d27d4eb4full;
    uint64_t lane3 = seed ^ 0x165667b19e3779f9ull;
    size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        lane0 = step(lane0, word(i));
        lane1 = step(lane1, word(i + 8));
        lane2 = step(lane2, word(i + 16));
        lane3 = step(lane3, word(i + 24));
    }
    for (; i + 8 <= len; i += 8)
        lane0 = step(lane0, word(i));
    if (i < len) {
        uint64_t tail = 0;
        std::memcpy(&tail, bytes + i, len - i);
        lane0 = step(lane0, tail);
    }
    const uint64_t folded =
        step(step(step(lane0, lane1), lane2), lane3);
    return step(folded, static_cast<uint64_t>(len));
}

} // namespace bpnsp

#endif // BPNSP_UTIL_HASH_HPP
