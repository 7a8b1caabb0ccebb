// Directory sharer vector that scales past 64 nodes.
//
// The common case (every shipped preset up to 8x8) fits in one inline word;
// larger fabrics (16x16, 32x32) spill into an owned, length-prefixed heap
// array of extra words. The whole set is 16 bytes — one word and one
// pointer — so an L2 line payload stays at 24 bytes on the full-map
// directory (a std::vector spill would cost 24 bytes, always empty up to
// 64 nodes). Default construction is the empty set, so CacheArray's
// `meta = Meta{}` reset on install clears the directory entry as before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rc {

class SharerSet {
 public:
  SharerSet() = default;
  SharerSet(const SharerSet& o) : low_(o.low_) {
    if (o.spill_)
      spill_ = make_spill(o.spill_ + 1, o.spill_len(), o.spill_len());
  }
  SharerSet(SharerSet&& o) noexcept
      : low_(std::exchange(o.low_, 0)),
        spill_(std::exchange(o.spill_, nullptr)) {}
  /// Copy and move assignment in one (copy-and-swap: self-assignment safe).
  SharerSet& operator=(SharerSet o) noexcept {
    std::swap(low_, o.low_);
    std::swap(spill_, o.spill_);
    return *this;
  }
  ~SharerSet() { delete[] spill_; }

  void add(NodeId n) { word(n) |= bit(n); }
  void remove(NodeId n) {
    if (index(n) < num_words()) at(index(n)) &= ~bit(n);
  }
  bool test(NodeId n) const {
    return index(n) < num_words() && (at(index(n)) & bit(n)) != 0;
  }
  void clear() {
    low_ = 0;
    delete[] spill_;
    spill_ = nullptr;
  }
  /// Make `n` the only member (recall paths: the old owner becomes the
  /// single S-state sharer).
  void assign_only(NodeId n) {
    clear();
    add(n);
  }
  bool none() const {
    for (std::size_t i = 0; i < num_words(); ++i)
      if (at(i) != 0) return false;
    return true;
  }
  bool any() const { return !none(); }
  /// True when a member other than `n` exists (§ write invalidation: does
  /// the GetX need an invalidation round beyond the requestor itself?).
  bool any_besides(NodeId n) const {
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = at(i);
      if (index(n) == i) w &= ~bit(n);
      if (w != 0) return true;
    }
    return false;
  }
  /// Number of members (sparse-directory pointer budgeting).
  int count() const {
    int n = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      n += __builtin_popcountll(at(i));
    return n;
  }
  /// Lowest-numbered member other than `n`, or kInvalidNode. Deterministic
  /// pointer-overflow victim choice: the same configuration always recalls
  /// the same sharer (and the conformance model mirrors the rule).
  NodeId lowest_besides(NodeId n) const {
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = at(i);
      if (index(n) == i) w &= ~bit(n);
      if (w != 0)
        return static_cast<NodeId>(i * 64 +
                                   static_cast<std::size_t>(__builtin_ctzll(w)));
    }
    return kInvalidNode;
  }
  /// Raw word access for snapshot save/restore: word 0 is the inline low_
  /// word, words 1.. are the heap spill. Restoring through set_words keeps
  /// the spill's length exactly as saved (trailing zero words are
  /// semantically empty either way, but byte-identical snapshots are
  /// easier to reason about when the representation round-trips).
  std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> w(num_words());
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = at(i);
    return w;
  }
  void set_words(const std::vector<std::uint64_t>& w) {
    clear();
    if (w.empty()) return;
    low_ = w[0];
    if (w.size() > 1)
      spill_ = make_spill(w.data() + 1, w.size() - 1, w.size() - 1);
  }

  /// Visit members in ascending NodeId order (deterministic invalidation
  /// send order — message ids and stats must not depend on set internals).
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = at(i);
      while (w != 0) {
        const int b = __builtin_ctzll(w);
        w &= w - 1;
        fn(static_cast<NodeId>(i * 64 + static_cast<std::size_t>(b)));
      }
    }
  }

 private:
  static std::uint64_t bit(NodeId n) {
    return 1ull << (static_cast<unsigned>(n) % 64u);
  }
  static std::size_t index(NodeId n) {
    return static_cast<std::size_t>(n) / 64u;
  }
  /// A spill of `len` words, the first `n` (<= len) copied from `w` and
  /// the rest zero: spill[0] is the word count, spill[1..] the words for
  /// nodes 64 and up.
  static std::uint64_t* make_spill(const std::uint64_t* w, std::size_t n,
                                   std::size_t len) {
    auto* s = new std::uint64_t[len + 1]();
    s[0] = len;
    std::copy(w, w + n, s + 1);
    return s;
  }
  std::size_t spill_len() const { return spill_ ? spill_[0] : 0; }
  /// Inline word plus spill words.
  std::size_t num_words() const { return 1 + spill_len(); }
  /// Word i < num_words(): spill_[i] for i >= 1, as spill_[0] is the count.
  std::uint64_t& at(std::size_t i) { return i == 0 ? low_ : spill_[i]; }
  std::uint64_t at(std::size_t i) const { return i == 0 ? low_ : spill_[i]; }
  std::uint64_t& word(NodeId n) {
    if (index(n) > spill_len()) {
      std::uint64_t* grown =
          make_spill(spill_ ? spill_ + 1 : nullptr, spill_len(), index(n));
      delete[] spill_;
      spill_ = grown;
    }
    return at(index(n));
  }

  std::uint64_t low_ = 0;
  std::uint64_t* spill_ = nullptr;  ///< owned; null when no node >= 64 added
};

static_assert(sizeof(SharerSet) == 16,
              "SharerSet is one inline word plus one spill pointer");

}  // namespace rc
