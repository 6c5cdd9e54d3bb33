// Latency statistics for the serving layer: the exact nearest-rank
// percentile and a mergeable log2 histogram that reports the same rank.

#ifndef NUMALAB_COMMON_STATS_H_
#define NUMALAB_COMMON_STATS_H_

#include <algorithm>
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

/// \brief Fixed-bucket latency histogram with log2 buckets.
///
/// Bucket 0 holds the value 0; bucket b (1..64) holds values in
/// [2^(b-1), 2^b - 1]. Adding is O(1) and allocation-free, so per-thread
/// instances can record every request of a serving run and be merged into
/// one run-wide histogram afterwards (Merge is a counter add, making the
/// result independent of which thread observed which sample).
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

  /// Folds another histogram (e.g. a different thread's) into this one.
  void Merge(const Histogram& o) {
    for (int b = 0; b < kBuckets; ++b) counts_[static_cast<size_t>(b)] +=
        o.counts_[static_cast<size_t>(b)];
    total_ += o.total_;
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
