// 128-bit FNV-1a: two independent 64-bit FNV-1a accumulators fed the same
// byte stream. The memo keys of the decision path (the placement cache in
// sched/, the bipartition memo in partition/) hash with it; see DESIGN.md
// §12 for the collision argument they share.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gts::util {

class Fnv128 {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h1_ = (h1_ ^ p[i]) * kPrime;
      h2_ = (h2_ ^ p[i]) * kPrime;
    }
  }
  void add_int(int value) { bytes(&value, sizeof(value)); }
  void add_double(double value) { bytes(&value, sizeof(value)); }

  std::uint64_t h1() const noexcept { return h1_; }
  std::uint64_t h2() const noexcept { return h2_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  static constexpr std::uint64_t kBasis = 14695981039346656037ULL;
  std::uint64_t h1_ = kBasis;
  std::uint64_t h2_ = kBasis ^ 0x9e3779b97f4a7c15ULL;  // independent basis
};

}  // namespace gts::util
