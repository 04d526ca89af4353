/**
 * @file
 * Unit tests for the deterministic RNG and Zipf sampler.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"

using namespace toleo;

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng r(11);
    std::vector<int> counts(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[r.nextBounded(8)];
    for (int c : counts) {
        EXPECT_GT(c, n / 8 * 0.9);
        EXPECT_LT(c, n / 8 * 1.1);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = r.nextRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, Pow2DrawProbability)
{
    Rng r(13);
    // p = 2^-8; expect ~390 successes in 100k draws.
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.nextPow2Draw(8);
    const double expected = n / 256.0;
    EXPECT_GT(hits, expected * 0.7);
    EXPECT_LT(hits, expected * 1.3);
}

TEST(Rng, Pow2DrawEdges)
{
    Rng r(17);
    EXPECT_TRUE(r.nextPow2Draw(0));   // p = 1
    EXPECT_FALSE(r.nextPow2Draw(64)); // p = 0
}

TEST(Rng, GaussianMoments)
{
    Rng r(21);
    const int n = 200000;
    double sum = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
        double g = r.nextGaussian();
        sum += g;
        sq += g * g;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianScaled)
{
    Rng r(22);
    const int n = 100000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += r.nextGaussian(10.0, 3.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Zipf, DomainRespected)
{
    ZipfSampler z(100, 0.99, 3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.next(), 100u);
}

TEST(Zipf, HeadIsHot)
{
    ZipfSampler z(10000, 0.99, 5);
    std::map<std::uint64_t, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z.next()];
    // Rank 0 should be drawn far more often than a mid-tail rank.
    EXPECT_GT(counts[0], n / 100);
    int tail = 0;
    for (auto &[k, v] : counts)
        if (k > 5000)
            tail += v;
    EXPECT_LT(tail, counts[0] * 5);
}

TEST(Zipf, HigherThetaIsMoreSkewed)
{
    ZipfSampler lo(10000, 0.5, 7), hi(10000, 1.2, 7);
    int lo_head = 0, hi_head = 0;
    for (int i = 0; i < 50000; ++i) {
        lo_head += (lo.next() < 10);
        hi_head += (hi.next() < 10);
    }
    EXPECT_GT(hi_head, lo_head);
}

TEST(Rng, BoundedMatchesPlainRejectionModulo)
{
    // nextBounded must reproduce the plain threshold-rejection +
    // modulo algorithm draw for draw: a power-of-two bound takes a
    // mask in its place, and every other bound runs it directly.
    const std::uint64_t bounds[] = {
        1,       2,          3,     7,      9,    64,   100,
        1000,    4096,       12289, 786432, 1u << 20,
        (1u << 20) + 1,      0xffffffffull,
        0x100000001ull,      0xfffffffffffffffull,
    };
    for (const std::uint64_t bound : bounds) {
        Rng fast(99), ref(99);
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t got = fast.nextBounded(bound);
            std::uint64_t want;
            const std::uint64_t threshold = -bound % bound;
            for (;;) {
                const std::uint64_t r = ref.next();
                if (r >= threshold) {
                    want = r % bound;
                    break;
                }
            }
            ASSERT_EQ(got, want) << "bound=" << bound << " i=" << i;
        }
        // Interleaving different bounds: no draw depends on the
        // previous bound.
        ASSERT_EQ(fast.nextBounded(3), [&] {
            for (;;) {
                const std::uint64_t r = ref.next();
                if (r >= (-std::uint64_t{3} % 3))
                    return r % 3;
            }
        }());
    }
}

// -- Fixed-seed pinning -------------------------------------------------
//
// The generators below are determinism-critical: sweep results, golden
// stats, and record/replay all assume a given (seed, algorithm) pair
// reproduces bit-identical draws forever.  These tests pin short
// fixed-seed prefixes so any change to the draw algorithms -- including
// a well-meaning UB fix that subtly reorders the float math -- fails
// loudly here instead of silently shifting every downstream golden.

TEST(RngPinned, RawSequenceSeed42)
{
    Rng r(42);
    const std::uint64_t want[] = {
        1546998764402558742ull, 6990951692964543102ull,
        12544586762248559009ull, 17057574109182124193ull,
    };
    for (const std::uint64_t w : want)
        EXPECT_EQ(r.next(), w);
}

TEST(RngPinned, BoundedPow2PathSeed42)
{
    // 4096 is a power of two: the mask fast path.
    Rng r(42);
    const std::uint64_t want[] = {
        1814ull, 2686ull, 2465ull, 161ull, 3684ull, 568ull,
    };
    for (const std::uint64_t w : want)
        EXPECT_EQ(r.nextBounded(4096), w);
}

TEST(RngPinned, BoundedReciprocalPathSeed42)
{
    // 12289 is not a power of two: the threshold-rejection + modulo
    // path.
    Rng r(42);
    const std::uint64_t want[] = {
        9763ull, 4472ull, 2417ull, 2325ull, 5823ull, 11398ull,
    };
    for (const std::uint64_t w : want)
        EXPECT_EQ(r.nextBounded(12289), w);
}

TEST(RngPinned, DoubleSeed42)
{
    Rng r(42);
    EXPECT_EQ(r.nextDouble(), 0.083862971059882163);
    EXPECT_EQ(r.nextDouble(), 0.37898025066266861);
}

TEST(ZipfPinned, SequenceSeed42)
{
    // Covers the rank-0 / rank-1 shortcuts and the pow() tail,
    // including the clamp-before-cast shape in ZipfSampler::next().
    // No earlier test sums zeta(100000, 0.99), so `fresh` sums it and
    // `hit` reads the memo after `other` filled another entry: a memo
    // hit must return the bits of a fresh sum.
    const std::uint64_t want[] = {
        1ull, 55ull, 2260ull, 41515ull,
        90909ull, 6636ull, 3624ull, 17227ull,
    };
    ZipfSampler fresh(100000, 0.99, 42);
    ZipfSampler other(4096, 1.1, 42);
    ZipfSampler hit(100000, 0.99, 42);
    for (const std::uint64_t w : want) {
        EXPECT_EQ(fresh.next(), w);
        EXPECT_EQ(hit.next(), w);
    }
    EXPECT_LT(other.next(), 4096u);
}
