// Latency statistics for the serving layer: the exact nearest-rank
// percentile and a log2 histogram that reports the same rank.

#ifndef NUMALAB_COMMON_STATS_H_
#define NUMALAB_COMMON_STATS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace numalab {

/// Index of the order statistic nearest the rank (p/100)*(n-1) among n > 0
/// ascending values. `p` is clamped to [0, 100], and a NaN p counts as 0,
/// so the index never passes the end (p > 100) or wraps through a
/// negative-to-unsigned cast (p < 0).
inline uint64_t NearestRank(double p, uint64_t n) {
  if (!(p > 0.0)) p = 0.0;  // also catches NaN
  if (p > 100.0) p = 100.0;
  double rank = (p / 100.0) * static_cast<double>(n - 1);
  return std::min(static_cast<uint64_t>(rank + 0.5), n - 1);
}

/// Exact p-th percentile of an ascending-sorted sequence: the order
/// statistic at NearestRank(p, size). 0 for an empty sequence.
inline uint64_t PercentileSorted(const std::vector<uint64_t>& xs, double p) {
  return xs.empty() ? 0 : xs[NearestRank(p, xs.size())];
}

/// The percentiles PercentileSorted would return at each of `ps` over `xs`
/// once sorted, found without the sort. `ps` must be ascending, so the
/// NearestRank indices are too: one std::nth_element per distinct index,
/// each over the part of xs right of the previous one (every value there
/// is at least every value left of it). Reorders xs; all 0 when it is
/// empty.
template <size_t N>
std::array<uint64_t, N> PercentilesBySelection(
    std::vector<uint64_t>* xs, const std::array<double, N>& ps) {
  std::array<uint64_t, N> out{};
  if (xs->empty()) return out;
  auto begin = xs->begin();
  uint64_t lo = 0;  // xs[0, lo) hold their sorted positions' values
  for (size_t i = 0; i < N; ++i) {
    uint64_t k = NearestRank(ps[i], xs->size());
    if (k >= lo) {
      std::nth_element(begin + static_cast<std::ptrdiff_t>(lo),
                       begin + static_cast<std::ptrdiff_t>(k), xs->end());
      lo = k + 1;
    }
    out[i] = (*xs)[k];
  }
  return out;
}

/// \brief Fixed-bucket latency histogram with log2 buckets.
///
/// Bucket 0 holds the value 0; bucket b (1..64) holds values in
/// [2^(b-1), 2^b - 1]. Adding is O(1) and allocation-free, so one instance
/// can record every request of a serving run; bucket counts are sums, so
/// the result is independent of the order the samples arrive in.
///
/// Percentile(p) returns the inclusive upper bound of the bucket holding
/// the order statistic at NearestRank(p, count) — the one PercentileSorted
/// returns over the same samples, which tests/stats_test.cc asserts.
class Histogram {
 public:
  /// Bucket 0 plus one bucket per bit of a uint64_t.
  static constexpr int kBuckets = 65;

  /// Index of the bucket holding `v`.
  static int BucketOf(uint64_t v) {
    int b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Inclusive [lo, hi] range of bucket `b`.
  static uint64_t BucketLo(int b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }
  static uint64_t BucketHi(int b) {
    if (b == 0) return 0;
    if (b == 64) return ~uint64_t{0};
    return (uint64_t{1} << b) - 1;
  }

  void Add(uint64_t v) {
    ++counts_[static_cast<size_t>(BucketOf(v))];
    ++total_;
  }

  uint64_t total() const { return total_; }
  uint64_t count(int b) const { return counts_[static_cast<size_t>(b)]; }
  bool empty() const { return total_ == 0; }

  /// Largest non-empty bucket's upper bound; 0 for an empty histogram.
  uint64_t MaxBucketHi() const {
    for (int b = kBuckets - 1; b >= 0; --b) {
      if (counts_[static_cast<size_t>(b)] != 0) return BucketHi(b);
    }
    return 0;
  }

  /// See the class comment; 0 for an empty histogram.
  uint64_t Percentile(double p) const {
    if (total_ == 0) return 0;
    uint64_t idx = NearestRank(p, total_);
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[static_cast<size_t>(b)];
      if (seen > idx) return BucketHi(b);
    }
    return MaxBucketHi();  // unreachable: seen ends at total_ > idx
  }

 private:
  uint64_t counts_[kBuckets] = {};
  uint64_t total_ = 0;
};

}  // namespace numalab

#endif  // NUMALAB_COMMON_STATS_H_
