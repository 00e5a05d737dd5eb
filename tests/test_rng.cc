/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "base/rng.hh"

namespace smtavf
{
namespace
{

/**
 * The rejection sampler Rng::uniform replaced: it computes the rejection
 * threshold on every draw and never special-cases power-of-two bounds.
 * Kept verbatim as the draw-for-draw reference for the faster version.
 */
std::uint64_t
referenceUniform(Rng &r, std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    std::uint64_t x = r.next();
    std::uint64_t threshold = -bound % bound;
    while (x < threshold)
        x = r.next();
    return x % bound;
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    auto first = a.next();
    a.next();
    a.seed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformStaysBelowBound)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.uniform(17), 17u);
}

TEST(Rng, UniformBoundOneIsZero)
{
    Rng r(3);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformZeroBoundIsZero)
{
    Rng r(3);
    EXPECT_EQ(r.uniform(0), 0u);
}

TEST(Rng, UniformMatchesReferenceDrawForDraw)
{
    // Same values and same number of raw draws consumed, including the
    // bounds whose rejection rate is near one half (2^63 + 1) and the
    // power-of-two bounds that now skip the threshold entirely.
    constexpr std::uint64_t two63 = std::uint64_t{1} << 63;
    const std::uint64_t bounds[] = {0,
                                    1,
                                    2,
                                    3,
                                    7,
                                    8,
                                    31,
                                    (std::uint64_t{1} << 32) - 1,
                                    (std::uint64_t{1} << 32) + 1,
                                    two63,
                                    two63 + 1,
                                    UINT64_MAX};
    constexpr std::size_t numBounds = sizeof(bounds) / sizeof(bounds[0]);
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        Rng fast(seed), ref(seed);
        for (std::size_t i = 0; i < 1'200'000; ++i) {
            std::uint64_t bound = bounds[i % numBounds];
            ASSERT_EQ(fast.uniform(bound), referenceUniform(ref, bound))
                << "seed " << seed << " draw " << i << " bound " << bound;
        }
        EXPECT_EQ(fast.next(), ref.next()) << "streams drifted apart";
    }
}

TEST(Rng, UniformCoversRange)
{
    Rng r(5);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[r.uniform(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng r(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = r.uniformRange(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        lo |= v == 3;
        hi |= v == 6;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRealMeanNearHalf)
{
    Rng r(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniformReal();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
        EXPECT_FALSE(r.bernoulli(-0.5));
        EXPECT_TRUE(r.bernoulli(1.5));
    }
}

TEST(Rng, BernoulliRateMatchesP)
{
    Rng r(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng r(23);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LE(r.geometric(0.1, 5), 5u);
}

TEST(Rng, GeometricDegenerateP)
{
    Rng r(29);
    EXPECT_EQ(r.geometric(1.0, 10), 0u);
    EXPECT_EQ(r.geometric(0.0, 10), 10u);
}

TEST(Rng, GeometricMeanRoughlyMatches)
{
    Rng r(31);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.geometric(0.5, 100);
    EXPECT_NEAR(sum / n, 1.0, 0.05); // mean failures = (1-p)/p = 1
}

TEST(Rng, ZipfStaysInRange)
{
    Rng r(37);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.zipf(50, 0.8), 50u);
}

TEST(Rng, ZipfDegenerateN)
{
    Rng r(41);
    EXPECT_EQ(r.zipf(0, 0.8), 0u);
    EXPECT_EQ(r.zipf(1, 0.8), 0u);
}

TEST(Rng, ZipfSkewsLow)
{
    Rng r(43);
    int low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        low += r.zipf(100, 0.8) < 10;
    // With skew 0.8, far more than the uniform 10% lands in the lowest
    // tenth.
    EXPECT_GT(low, n / 3);
}

TEST(Rng, HigherSkewConcentratesMore)
{
    Rng r1(47), r2(47);
    int low_s = 0, high_s = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        low_s += r1.zipf(100, 0.3) < 10;
        high_s += r2.zipf(100, 0.95) < 10;
    }
    EXPECT_GT(high_s, low_s);
}

} // namespace
} // namespace smtavf
