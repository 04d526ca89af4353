/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the reproduction (stealth-version
 * initialization, probabilistic resets, workload synthesis) draws from
 * seeded xoshiro256** streams so every experiment is reproducible
 * bit-for-bit.  The real Toleo device uses a DRAM-based TRNG
 * (D-RaNGe [29]); a seeded PRNG is the standard simulation stand-in.
 */

#ifndef TOLEO_COMMON_RNG_HH
#define TOLEO_COMMON_RNG_HH

#include <cstdint>

namespace toleo {

/**
 * xoshiro256** generator (Blackman & Vigna).  Small, fast, and good
 * enough statistically for simulation purposes.
 *
 * The integer/uniform draws are defined inline: the workload
 * generators draw several per simulated reference, so the call
 * overhead of out-of-line definitions is measurable.
 */
class Rng
{
  public:
    /** Seed via splitmix64 so any 64-bit seed yields a good state. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /**
     * Uniform integer in [0, bound). bound must be non-zero.  Draws
     * by threshold rejection and r % bound; a power-of-two bound
     * takes the equivalent mask.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            boundPanic();
        // Power-of-two bound: the rejection threshold (-bound % bound)
        // is zero and the modulo reduces to a mask, so the two 64-bit
        // divisions vanish while every draw stays identical.
        if ((bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        // Rejection to remove modulo bias: redraw the values below
        // 2^64 mod bound, so every residue has equal weight.
        const std::uint64_t threshold = -bound % bound;
        while (true) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        if (hi < lo)
            rangePanic();
        return lo + nextBounded(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool
    nextBool(double p)
    {
        return nextDouble() < p;
    }

    /**
     * Bernoulli draw with probability 2^-bits, computed without
     * floating point (matches hardware reset-draw semantics:
     * Section 4.2 uses p = 2^-20).
     */
    bool
    nextPow2Draw(unsigned bits)
    {
        if (bits == 0)
            return true;
        if (bits >= 64)
            return false;
        const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
        return (next() & mask) == 0;
    }

    /** Standard normal (Box-Muller). */
    double nextGaussian();

    /** Gaussian with given mean and standard deviation. */
    double nextGaussian(double mean, double stddev);

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Out-of-line so the inline fast paths stay small. */
    [[noreturn]] static void boundPanic();
    [[noreturn]] static void rangePanic();
};

/**
 * Bounded Zipfian sampler over [0, n) with exponent theta, using the
 * standard inverse-CDF-free rejection method of Gray et al.  Used for
 * popularity skew by MixWorkload's Zipf streams and by the request
 * apps' payload draws.
 *
 * The normalization zeta(n, theta) is summed once per (n, theta) per
 * process and memoized: a 64-core kvs node would otherwise re-sum the
 * same 131072-term series once per core.  Sharing the memo across
 * samplers and threads cannot reach any result, because the value is
 * a pure function of its key and a miss sums in the one fixed order.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta, std::uint64_t seed);

    std::uint64_t next();

  private:
    std::uint64_t n_;
    double alpha_;
    double zetan_;
    double eta_;
    /** pow(0.5, theta), hoisted out of the per-draw path. */
    double powHalfTheta_;
    Rng rng_;

    /** sum over i in [1, n] of 1 / i^theta, memoized per (n, theta). */
    static double zeta(std::uint64_t n, double theta);
};

} // namespace toleo

#endif // TOLEO_COMMON_RNG_HH
