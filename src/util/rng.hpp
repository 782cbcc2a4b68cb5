/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behavior in the repository (workload construction,
 * fault injection, load generation, data tables, clustering
 * initialization) flows through Rng so that every experiment is
 * reproducible from a single seed. The generator is xoshiro256**,
 * which is fast, high quality, and trivially seedable; seeds expand
 * through splitmix64.
 *
 * Subsystems that need many decorrelated streams from one master seed
 * (faultsim's per-failpoint streams, the serve load generator's
 * per-client streams) derive them through Rng::stream() rather than
 * ad-hoc seed arithmetic, so the whole
 * repository draws from one audited derivation scheme: the master seed
 * and the stream label (a name or an index) are mixed through
 * splitmix64/FNV-1a before seeding the child generator, which keeps
 * nearby seeds and nearby indices statistically independent.
 */

#ifndef BPNSP_UTIL_RNG_HPP
#define BPNSP_UTIL_RNG_HPP

#include <cstdint>
#include <string_view>

#include "util/hash.hpp"

namespace bpnsp {

/** One splitmix64 mixing step (also usable as a 64-bit hash finisher). */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** xoshiro256** PRNG with splitmix64 seeding. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 expansion of the seed into the four state words.
        uint64_t z = seed;
        for (auto &word : state) {
            z += 0x9e3779b97f4a7c15ull;
            uint64_t s = z;
            s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ull;
            s = (s ^ (s >> 27)) * 0x94d049bb133111ebull;
            word = s ^ (s >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        // Rejection-free Lemire reduction is overkill here; modulo bias
        // is negligible for the bounds we use (all << 2^64). A power of
        // two takes the same value by a mask, without a division.
        const uint64_t r = next();
        return (bound & (bound - 1)) == 0 ? r & (bound - 1) : r % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Fork an independent, deterministic child stream. */
    Rng
    fork()
    {
        return Rng(next() ^ 0xd1b54a32d192ed03ull);
    }

    /**
     * Derive the numbered substream of a master seed. Equal
     * (seed, index) pairs give equal streams; distinct indices give
     * statistically independent ones even when consecutive.
     */
    static Rng
    stream(uint64_t seed, uint64_t index)
    {
        return Rng(splitmix64(seed) ^ splitmix64(index ^
                                                 0xa0761d6478bd642full));
    }

    /**
     * Derive the named substream of a master seed. The per-failpoint
     * and per-phase streams use this so a given (seed, name) pair
     * reproduces the same draws regardless of how other streams
     * interleave.
     */
    static Rng
    stream(uint64_t seed, std::string_view name)
    {
        return Rng(splitmix64(seed) ^ fnv1a(name));
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4];
};

} // namespace bpnsp

#endif // BPNSP_UTIL_RNG_HPP
