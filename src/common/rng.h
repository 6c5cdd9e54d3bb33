// Seeded pseudo-random number generation used throughout the simulator and
// the data generators. All randomness in numalab flows through these types so
// that every simulated run is reproducible from its seed.

#ifndef NUMALAB_COMMON_RNG_H_
#define NUMALAB_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace numalab {

/// \brief SplitMix64 generator; also used to seed Xoshiro256.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// \brief xoshiro256** — fast, high-quality 64-bit PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.Next();
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform real in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// \brief Zipf-distributed sampler over {0, ..., n-1} with exponent e.
///
/// Uses the classic cumulative-probability table with binary search; build is
/// O(n), sampling is O(log n). Matches the paper's dataset recipe (exponent
/// 0.5 by default).
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double exponent, uint64_t seed)
      : rng_(seed), cdf_(n) {
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  uint64_t Next() {
    double u = rng_.NextDouble();
    // Binary search for first cdf_[i] >= u.
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

}  // namespace numalab

#endif  // NUMALAB_COMMON_RNG_H_
