/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (workload generators, jitter
 * in timing models, failure injection points) draws from Rng so that
 * every experiment is reproducible from its seed. The core generator
 * is xoshiro256**, seeded through SplitMix64 as its authors recommend.
 */

#pragma once

#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace wsp {

/** SplitMix64 step; used for seeding and as a cheap stateless mixer. */
constexpr uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also feed
 * <random> distributions, though the member helpers below cover the
 * library's needs without the standard library's cross-platform
 * variability.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a seed; equal seeds give equal sequences. */
    explicit Rng(uint64_t seed = 0x57535021ull) { reseed(seed); }

    /** Reset the generator to the sequence for @p seed. */
    void
    reseed(uint64_t seed)
    {
        uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    uint64_t
    operator()()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be positive. */
    uint64_t
    next(uint64_t bound)
    {
        WSP_CHECK(bound > 0);
        // Lemire's multiply-shift rejection method: unbiased and fast.
        uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto low = static_cast<uint64_t>(m);
        if (low < bound) {
            const uint64_t threshold = -bound % bound;
            while (low < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        WSP_CHECK(lo <= hi);
        const auto span = static_cast<uint64_t>(hi - lo) + 1;
        // span == 0 means the full 64-bit range.
        const uint64_t draw = (span == 0) ? (*this)() : next(span);
        return lo + static_cast<int64_t>(draw);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** Exponential draw with the given mean (mean > 0). */
    double
    exponential(double mean)
    {
        WSP_CHECK(mean > 0.0);
        double u = uniform();
        while (u <= 0.0)
            u = uniform();
        return -mean * std::log(u);
    }

    /**
     * Fork an independent child stream; children of distinct indexes
     * are decorrelated from each other and from the parent. NOTE:
     * fork() advances this generator, so the child depends on how
     * many draws preceded it. Concurrent workers must use stream()
     * instead, which is order-independent.
     */
    Rng
    fork(uint64_t index)
    {
        uint64_t sm = (*this)() ^ (index * 0x9e3779b97f4a7c15ull);
        return Rng(splitMix64(sm));
    }

    /**
     * Independently-seeded stream for worker @p index, derived from
     * this generator's current state WITHOUT advancing it. Unlike
     * fork(), the result depends only on (state, index), never on the
     * order or number of other stream() calls — so a thread pool can
     * hand worker w stream(w) and stay deterministic no matter how
     * the workers are scheduled.
     */
    Rng
    stream(uint64_t index) const
    {
        uint64_t sm = state_[0] ^ rotl(state_[1], 17) ^
                      rotl(state_[2], 31) ^ rotl(state_[3], 47) ^
                      ((index + 1) * 0x9e3779b97f4a7c15ull);
        // Two splitmix rounds decorrelate adjacent indexes.
        (void)splitMix64(sm);
        return Rng(splitMix64(sm));
    }

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4] = {};
};

} // namespace wsp
