// Round-robin arbitration, used by both phases of the VC and switch
// allocators (Table 4: "round-robin 2-phase VC/switch allocators").
#pragma once

#include <bit>
#include <cstdint>

#include "common/types.hpp"

namespace rc {

class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int n = 0) : ptr_(0) { resize(n); }

  void resize(int n) {
    RC_ASSERT(n >= 0 && n <= 64, "round-robin arbiter supports 64 requesters");
    n_ = n;
    mask_ = n_ == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n_) - 1;
    if (ptr_ >= n_) ptr_ = 0;
  }

  /// Grant one of the requesting indices (bit i of `requests`; bits at or
  /// above size() are ignored), the first at or after the rotating priority
  /// pointer, wrapping; returns -1 when nothing requests. The pointer moves
  /// past the winner so grants rotate fairly.
  int grant(std::uint64_t requests) {
    requests &= mask_;
    if (requests == 0) return -1;
    const std::uint64_t hi = requests & (~std::uint64_t{0} << ptr_);
    const int idx = std::countr_zero(hi ? hi : requests);
    ptr_ = idx + 1 == n_ ? 0 : idx + 1;
    return idx;
  }

  int size() const { return n_; }

  /// Rotating priority pointer, for snapshot save/restore only.
  int pointer() const { return ptr_; }
  void set_pointer(int p) { ptr_ = (p >= 0 && p < n_) ? p : 0; }

 private:
  int n_;
  int ptr_;
  std::uint64_t mask_;  ///< the low n_ bits
};

}  // namespace rc
