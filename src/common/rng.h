/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * simulation campaigns.
 *
 * All stochastic behaviour in the codebase (process variation draws,
 * workload generation, Monte-Carlo circuit sweeps) flows through Rng so
 * experiments are exactly reproducible from a seed. The generator is
 * xoshiro256** seeded via SplitMix64, which is the standard pairing
 * recommended by the xoshiro authors.
 */

#ifndef CODIC_COMMON_RNG_H
#define CODIC_COMMON_RNG_H

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/logging.h"

namespace codic {

/**
 * Box-Muller transform: the standard-normal pair of the uniforms
 * u1 in (0, 1) and u2 in [0, 1). Both values are bounded by the
 * radius sqrt(-2 ln u1), which lets a scan that rejects most normals
 * skip the transform on pairs whose radius is too small (CodicTrng).
 */
inline std::pair<double, double>
boxMuller(double u1, double u2)
{
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    return {r * std::cos(theta), r * std::sin(theta)};
}

/**
 * Bound on |g| for every normal g that Rng::gaussian() returns: its
 * u1 is a nonzero multiple of 2^-53, so the boxMuller() radius is at
 * most sqrt(-2 ln 2^-53) = 8.57167434865... The constant rounds that
 * up in the seventh decimal, so a cut derived from it stays on the
 * safe side of any rounding in the transform (DramLatencyPuf).
 */
constexpr double kGaussianRadius = 8.5716744;

/** SplitMix64 stream, used to expand a single seed into generator state. */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state_(seed) {}

    /** Return the next 64-bit value in the stream. */
    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    uint64_t state_;
};

/**
 * xoshiro256** generator with convenience distributions.
 *
 * Not thread-safe; create one Rng per logical experiment stream and
 * derive child streams with fork() to keep campaigns independent.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0xC0D1CULL)
    {
        SplitMix64 sm(seed);
        for (auto &s : s_)
            s = sm.next();
    }

    /** Uniform 64-bit draw. */
    uint64_t
    next64()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t
    below(uint64_t n)
    {
        CODIC_ASSERT(n > 0);
        // Lemire-style rejection to avoid modulo bias.
        uint64_t x = next64();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        uint64_t l = static_cast<uint64_t>(m);
        if (l < n) {
            uint64_t t = -n % n;
            while (l < t) {
                x = next64();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        CODIC_ASSERT(hi >= lo);
        return lo + static_cast<int64_t>(
                        below(static_cast<uint64_t>(hi - lo) + 1));
    }

    /** Bernoulli draw with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * The uniforms (u1, u2) of one Box-Muller pair, drawn exactly as
     * gaussian() draws them.
     */
    std::pair<double, double>
    boxMullerUniforms()
    {
        double u1 = 0.0;
        while (u1 <= 1e-300)
            u1 = uniform();
        const double u2 = uniform();
        return {u1, u2};
    }

    /**
     * Standard normal draw: the first value of a boxMuller() pair,
     * with the second cached for the next call.
     */
    double
    gaussian()
    {
        switch (cache_) {
          case Cache::Value:
            cache_ = Cache::Empty;
            return cached_;
          case Cache::Uniforms:
            cache_ = Cache::Empty;
            return boxMuller(cached_, cached_u2_).second;
          case Cache::Empty:
            break;
        }
        const auto [u1, u2] = boxMullerUniforms();
        const auto [first, second] = boxMuller(u1, u2);
        cached_ = second;
        cache_ = Cache::Value;
        return first;
    }

    /**
     * Advance the stream exactly as gaussian() would, without the
     * transform: a cached normal is dropped, otherwise a pair's
     * uniforms are drawn and kept, so that a later gaussian() still
     * returns the pair's second value, transformed on demand.
     */
    void
    skipGaussian()
    {
        if (cache_ != Cache::Empty) {
            cache_ = Cache::Empty;
            return;
        }
        const auto [u1, u2] = boxMullerUniforms();
        cached_ = u1;
        cached_u2_ = u2;
        cache_ = Cache::Uniforms;
    }

    /** Normal draw with explicit mean and standard deviation. */
    double
    gaussian(double mean, double sigma)
    {
        return mean + sigma * gaussian();
    }

    /**
     * Derive an independent child generator. Children produced with
     * distinct tags are statistically independent of the parent and of
     * each other, so module-level streams never interleave.
     */
    Rng
    fork(uint64_t tag)
    {
        return Rng(next64() ^ (tag * 0x9e3779b97f4a7c15ULL));
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** What the pending second normal of the last pair is held as. */
    enum class Cache : uint8_t
    {
        Empty,    //!< None pending.
        Value,    //!< cached_ is the normal.
        Uniforms, //!< cached_, cached_u2_ are its (u1, u2).
    };

    uint64_t s_[4] = {};
    Cache cache_ = Cache::Empty;
    double cached_ = 0.0;
    double cached_u2_ = 0.0;
};

} // namespace codic

#endif // CODIC_COMMON_RNG_H
