// Exact remainder by a runtime-constant divisor without the hardware
// divide. The direct-mapped tag arrays (TLB, caches) compute
// `hash % size` once or more per simulated access; `size` is fixed at
// construction but unknown at compile time, so the compiler must emit a
// ~25-cycle integer division. This precomputes Lemire's multiply-shift
// reciprocal instead (D. Lemire, "Faster remainder by direct computation",
// 2019): two multiplications, bit-exact with `%` for any dividend below
// 2^32 — which the callers guarantee by hashing down to 32 bits first.
// A power-of-two divisor (Machine A's caches and LLCs) takes one AND
// instead: for such d, x & (d - 1) == x % d for every x.

#ifndef NUMALAB_MEM_FASTMOD_H_
#define NUMALAB_MEM_FASTMOD_H_

#include <cstdint>

namespace numalab {
namespace mem {

class FastMod32 {
 public:
  FastMod32() = default;
  explicit FastMod32(uint32_t d) : d_(d) {
    // magic = floor(2^64 / d) + 1. Powers of two, 1 included (whose magic
    // would wrap to 0), never consult it: Mod masks them. d == 0 has no
    // remainder; it masks with 0, so Mod returns 0.
    pow2_ = (d & (d - 1)) == 0;
    mask_ = d == 0 ? 0 : d - 1;
    if (!pow2_) magic_ = ~uint64_t{0} / d + 1;
  }

  /// Exactly x % divisor for x < 2^32.
  uint32_t Mod(uint64_t x) const {
    if (pow2_) return static_cast<uint32_t>(x & mask_);
    uint64_t low = magic_ * x;  // wraps mod 2^64 by design
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(low) * d_) >> 64);
  }

  uint32_t divisor() const { return d_; }

 private:
  uint32_t d_ = 1;
  bool pow2_ = true;
  uint32_t mask_ = 0;
  uint64_t magic_ = 0;
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_FASTMOD_H_
