// Boundary/degenerate coverage for src/common/stats.h — notably the
// percentile out-of-range regression: rank used to index past the end of
// the sorted vector for p > 100 and wrap through a negative-to-size_t cast
// for p < 0.

#include "src/common/stats.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace numalab {
namespace {

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_EQ(PercentileSorted({}, 50.0), 0u);
  EXPECT_EQ(PercentileSorted({}, 200.0), 0u);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_EQ(PercentileSorted({42}, 0.0), 42u);
  EXPECT_EQ(PercentileSorted({42}, 50.0), 42u);
  EXPECT_EQ(PercentileSorted({42}, 100.0), 42u);
}

TEST(PercentileTest, BoundsAndInterpolation) {
  std::vector<uint64_t> xs = {1, 2, 3, 4};
  EXPECT_EQ(PercentileSorted(xs, 0.0), 1u);
  EXPECT_EQ(PercentileSorted(xs, 100.0), 4u);
  // No interpolation: rank 1.5 rounds to the order statistic at index 2,
  // rank 0.75 to the one at index 1.
  EXPECT_EQ(PercentileSorted(xs, 50.0), 3u);
  EXPECT_EQ(PercentileSorted(xs, 25.0), 2u);
}

// Regression: p > 100 used to compute rank > size-1 and read past the end
// of the sorted vector; the result was garbage (and an ASan fault).
// Clamped, it must be exactly the maximum.
TEST(PercentileTest, OutOfRangeHighClampsToMax) {
  std::vector<uint64_t> xs = {10, 20, 30};
  EXPECT_EQ(PercentileSorted(xs, 100.0 + 1e-9), 30u);
  EXPECT_EQ(PercentileSorted(xs, 150.0), 30u);
  EXPECT_EQ(PercentileSorted(xs, 100000.0), 30u);
}

// Regression: negative p produced a negative rank whose size_t cast
// wrapped to a huge index.
TEST(PercentileTest, OutOfRangeLowClampsToMin) {
  std::vector<uint64_t> xs = {10, 20, 30};
  EXPECT_EQ(PercentileSorted(xs, -0.001), 10u);
  EXPECT_EQ(PercentileSorted(xs, -1000.0), 10u);
}

TEST(PercentileTest, NanPTreatedAsZero) {
  std::vector<uint64_t> xs = {10, 20, 30};
  EXPECT_EQ(PercentileSorted(xs, std::numeric_limits<double>::quiet_NaN()),
            10u);
}

// The serving reduction reads its percentiles by selection; they must be
// the order statistics a full sort gives, at every size (duplicates, the
// p95/p99 indices coinciding on small inputs, empty).
TEST(PercentileTest, SelectionMatchesSortedOrderStatistics) {
  Rng rng(7);
  constexpr std::array<double, 4> kPs = {0, 50, 95, 99};
  for (uint64_t n = 0; n < 300; ++n) {
    std::vector<uint64_t> xs(n);
    for (uint64_t& x : xs) x = rng.Uniform(n / 4 + 1);  // many duplicates
    std::vector<uint64_t> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    auto got = PercentilesBySelection(&xs, kPs);
    for (size_t i = 0; i < kPs.size(); ++i) {
      EXPECT_EQ(got[i], PercentileSorted(sorted, kPs[i]))
          << "n=" << n << " p=" << kPs[i];
    }
  }
}

TEST(HistogramTest, BucketGeometry) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 64);
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLo(b)), b);
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketHi(b)), b);
  }
}

// Bucket 0 holds {0}; bucket b>0 holds [2^(b-1), 2^b - 1]. Each bucket
// starts right after the previous one ends, and the inclusive spans
// (bucket 64's is exactly 2^63 values) cover all 2^64 values: the sum
// wraps to exactly 0 mod 2^64.
TEST(HistogramTest, BucketsTileTheWholeRange) {
  EXPECT_EQ(Histogram::BucketHi(64) - Histogram::BucketLo(64) + 1,
            uint64_t{1} << 63);
  uint64_t sum = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (b > 0) {
      EXPECT_EQ(Histogram::BucketLo(b), Histogram::BucketHi(b - 1) + 1)
          << "b=" << b;
    }
    sum += Histogram::BucketHi(b) - Histogram::BucketLo(b) + 1;
  }
  EXPECT_EQ(sum, 0u);
}

TEST(HistogramTest, EmptyAndDegenerate) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Percentile(50.0), 0u);
  EXPECT_EQ(h.MaxBucketHi(), 0u);
  h.Add(0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.Percentile(99.0), 0u);
  h.Add(7);
  EXPECT_EQ(h.Percentile(100.0), 7u);  // bucket [4,7] upper bound
}

// The histogram and the exact path pick the same order statistic, so the
// histogram's answer is exactly the upper bound of that statistic's
// bucket — out-of-range p included, since both clamp through NearestRank.
TEST(HistogramTest, PercentileIsTheBucketOfTheExactOrderStatistic) {
  std::vector<uint64_t> xs;
  Histogram h;
  uint64_t x = 12345;
  for (int i = 0; i < 1001; ++i) {
    // Deterministic skewed latencies spanning several octaves.
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t v = 100 + (x >> 52) * ((x >> 32) % 17);
    xs.push_back(v);
    h.Add(v);
  }
  std::sort(xs.begin(), xs.end());
  for (double p : {-5.0, 0.0, 10.0, 25.0, 33.3, 50.0, 90.0, 95.0, 99.0,
                   99.95, 100.0, 250.0}) {
    EXPECT_EQ(h.Percentile(p),
              Histogram::BucketHi(Histogram::BucketOf(PercentileSorted(xs, p))))
        << "p=" << p;
  }
}

}  // namespace
}  // namespace numalab
