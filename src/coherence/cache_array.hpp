// Generic set-associative array with age-based (pseudo-)LRU replacement,
// shared by the L1 caches, the L2 banks and the sparse directory.
//
// Tags and payloads live apart. The tag array holds one 8-byte word per way,
// packed per set, so a lookup scans 16 words of a 16-way set (two host cache
// lines) rather than 16 whole lines. The payload (LRU stamp plus coherence
// meta) is touched only on a hit, an install or a victim choice.
//
// The LRU stamp is 4 bytes: the cycle minus a per-array base, stored in the
// meta's tail padding. Stamps are only compared within one set, so when a
// cycle no longer fits 32 bits past the base, rebase() replaces each set's
// valid stamps by their dense ranks and moves the base past them; victim
// choice stays exact at any cycle count. Snapshots carry absolute stamps
// (base + offset), which equal the cycles themselves in a run shorter than
// 2^32 cycles, as the base then stays 0.
//
// A way is invalid when its tag word has kInvalid (the low bit) set. Tags are
// line addresses, which are 64-byte aligned, so a marked word never equals a
// looked-up address and `find` needs no separate valid test. An invalidated
// way keeps its last tag under the mark: L1 and directory snapshots record
// that stale tag, and it must round-trip.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rc {

/// `Meta` is the per-line coherence payload (POD with a default state).
template <typename Meta>
class CacheArray {
 public:
  /// `meta` comes first so that `last_used` can sit in its tail padding.
  struct Line {
    [[no_unique_address]] Meta meta{};
    std::uint32_t last_used = 0;  ///< last-touch cycle minus the array base
  };

  /// `index_stride` strips interleaving bits below the set index: a private
  /// L1 sees every line (stride 1), while a distributed L2 bank only sees
  /// every num_banks-th line, so indexing with stride = num_banks uses all
  /// of the bank's sets instead of the 1/num_banks aliased subset.
  CacheArray(int sets, int ways, int index_stride = 1)
      : sets_(sets), ways_(ways), stride_(index_stride), fold_(floor_log2(sets)),
        tags_(static_cast<std::size_t>(sets) * ways, kInvalid),
        lines_(static_cast<std::size_t>(sets) * ways) {}

  int sets() const { return sets_; }
  int ways() const { return ways_; }
  std::size_t size() const { return lines_.size(); }

  int set_of(Addr addr) const {
    Addr h = addr / kLineBytes / static_cast<Addr>(stride_);
    // XOR-fold the tag bits into the index (standard set-index hashing) so
    // power-of-two-aligned regions do not alias into the same few sets.
    h ^= (h >> fold_) ^ (h >> (2 * fold_));
    return static_cast<int>(h % static_cast<Addr>(sets_));
  }

  /// Find the line holding `addr`, or nullptr.
  Line* find(Addr addr) {
    const Addr la = line_addr(addr);
    const std::size_t base = set_base(la);
    for (int w = 0; w < ways_; ++w)
      if (tags_[base + w] == la) return &lines_[base + w];
    return nullptr;
  }

  /// Touch for replacement ordering. `now` never precedes a stamp already
  /// in the array: the clock only advances.
  void touch(Line& l, Cycle now) { l.last_used = offset(now); }

  /// A free way in addr's set, or nullptr when the set is full.
  Line* free_way(Addr addr) {
    const std::size_t base = set_base(line_addr(addr));
    for (int w = 0; w < ways_; ++w)
      if (tags_[base + w] & kInvalid) return &lines_[base + w];
    return nullptr;
  }

  /// find() and free_way() in one scan of addr's set: the line holding
  /// `addr` (hit), else the first free way (not a hit), else nullptr.
  struct Probe {
    Line* line;
    bool hit;
  };
  Probe probe(Addr addr) {
    const Addr la = line_addr(addr);
    const std::size_t base = set_base(la);
    Line* free = nullptr;
    for (int w = 0; w < ways_; ++w) {
      const Addr tag = tags_[base + w];
      if (tag == la) return {&lines_[base + w], true};
      if (!free && (tag & kInvalid)) free = &lines_[base + w];
    }
    return {free, false};
  }

  /// Least-recently-used valid line in addr's set for which
  /// `evictable(tag, line)` holds; nullptr when none qualifies.
  template <typename Pred>
  Line* victim(Addr addr, Pred evictable) {
    const std::size_t base = set_base(line_addr(addr));
    Line* best = nullptr;
    for (int w = 0; w < ways_; ++w) {
      const Addr tag = tags_[base + w];
      Line& l = lines_[base + w];
      if ((tag & kInvalid) || !evictable(tag, l)) continue;
      if (!best || l.last_used < best->last_used) best = &l;
    }
    return best;
  }

  /// Install `addr` in `way`: a free way of addr's set, as returned by
  /// free_way() or a victim the caller has just invalidated.
  Line* install(Line* way, Addr addr, Cycle now) {
    RC_ASSERT(way != nullptr && !valid(index_of(*way)),
              "install without a free way");
    tags_[index_of(*way)] = line_addr(addr);
    way->meta = Meta{};
    way->last_used = offset(now);
    return way;
  }

  /// Tag of a valid line.
  Addr tag_of(const Line& l) const { return tags_[index_of(l)]; }
  void invalidate(Line& l) { tags_[index_of(l)] |= kInvalid; }

  // Snapshot access by flat way index (set * ways + way).
  bool valid(std::size_t i) const { return (tags_[i] & kInvalid) == 0; }
  /// The way's tag; for an invalid way, the last tag it held.
  Addr tag(std::size_t i) const { return tags_[i] & ~kInvalid; }
  Line& line(std::size_t i) { return lines_[i]; }
  const Line& line(std::size_t i) const { return lines_[i]; }
  /// The way's absolute LRU stamp: the cycle of its last touch, as long as
  /// no rebase has happened (for an invalid way, a stale value).
  Cycle stamp(std::size_t i) const { return base_ + lines_[i].last_used; }

  /// Every way invalid with tag 0 and a default payload.
  void clear() {
    std::fill(tags_.begin(), tags_.end(), kInvalid);
    std::fill(lines_.begin(), lines_.end(), Line{});
    base_ = 0;
  }

  /// Snapshot restore of way `i`'s tag. Ways restore in index order. Returns
  /// nullptr, or why the tag would break the packed index: it is not line-
  /// aligned (valid or not, as the mark takes the low bit), or — for a valid
  /// way — it hashes to another set or repeats a valid tag earlier in the set.
  const char* restore(std::size_t i, bool valid, Addr tag) {
    if (tag != line_addr(tag)) return "tag is not line-aligned";
    if (valid) {
      const std::size_t set = i / static_cast<std::size_t>(ways_);
      if (static_cast<std::size_t>(set_of(tag)) != set)
        return "tag belongs to another set";
      for (std::size_t j = set * ways_; j < i; ++j)
        if (tags_[j] == tag) return "tag repeats a valid tag in its set";
    }
    tags_[i] = valid ? tag : tag | kInvalid;
    return nullptr;
  }

  /// Snapshot restore of every way's absolute stamp, after restore() has set
  /// the tags. When the valid ways' stamps span less than 2^32 cycles, each
  /// stamp that fits keeps its exact value (base 0 when all fit 32 bits,
  /// else the least valid stamp); an invalid way's stamp that does not fit
  /// becomes the base. A wider span is ranked per set, as in rebase().
  void restore_stamps(const std::vector<Cycle>& stamps) {
    RC_ASSERT(stamps.size() == lines_.size(), "one stamp per way");
    Cycle lo = kNeverCycle, hi = 0;
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      if (!valid(i)) continue;
      lo = std::min(lo, stamps[i]);
      hi = std::max(hi, stamps[i]);
    }
    base_ = hi <= kMaxOffset ? 0 : lo;
    if (hi - base_ <= kMaxOffset) {
      for (std::size_t i = 0; i < stamps.size(); ++i) {
        const bool fits = stamps[i] >= base_ && stamps[i] - base_ <= kMaxOffset;
        lines_[i].last_used =
            fits ? static_cast<std::uint32_t>(stamps[i] - base_) : 0;
      }
      return;
    }
    rank_sets([&stamps](std::size_t i) { return stamps[i]; });
    base_ = hi - static_cast<Cycle>(ways_);
  }

 private:
  static constexpr Addr kInvalid = 1;
  static constexpr Cycle kMaxOffset = ~std::uint32_t{0};

  std::uint32_t offset(Cycle now) {
    if (now - base_ > kMaxOffset) [[unlikely]] rebase(now);
    return static_cast<std::uint32_t>(now - base_);
  }
  /// Make room for stamps at `now` and after: each set's valid stamps become
  /// their dense ranks (equal stamps stay equal, order is kept) and the base
  /// moves to `now - ways`, so every stamp from `now` on is larger than
  /// every rank. (A clock behind the base only arises from a snapshot whose
  /// stamps postdate its cycle; such stamps then order approximately.)
  void rebase(Cycle now) {
    rank_sets([this](std::size_t i) { return Cycle{lines_[i].last_used}; });
    base_ = now - std::min(now, static_cast<Cycle>(ways_));
  }
  /// Set each way's offset to the dense rank of `key(way)` among the valid
  /// ways of its set; invalid ways get 0.
  template <typename Key>
  void rank_sets(Key key) {
    std::vector<std::pair<Cycle, std::size_t>> order;
    order.reserve(static_cast<std::size_t>(ways_));
    for (std::size_t set = 0; set < lines_.size(); set += ways_) {
      order.clear();
      for (std::size_t i = set; i < set + ways_; ++i)
        if (valid(i)) order.emplace_back(key(i), i);
      std::sort(order.begin(), order.end());
      for (std::size_t i = set; i < set + ways_; ++i) lines_[i].last_used = 0;
      std::uint32_t rank = 0;
      for (std::size_t k = 0; k < order.size(); ++k) {
        if (k > 0 && order[k].first != order[k - 1].first) ++rank;
        lines_[order[k].second].last_used = rank;
      }
    }
  }

  static int floor_log2(int n) {
    int lg = 0;
    while ((1 << (lg + 1)) <= n) ++lg;
    return lg;
  }
  std::size_t set_base(Addr la) const {
    return static_cast<std::size_t>(set_of(la)) * ways_;
  }
  std::size_t index_of(const Line& l) const {
    return static_cast<std::size_t>(&l - lines_.data());
  }

  int sets_, ways_;
  int stride_ = 1;
  int fold_;  ///< floor(log2(sets)): the set-index XOR-fold shift
  std::vector<Addr> tags_;  ///< per way: line address, | kInvalid when free
  std::vector<Line> lines_;
  Cycle base_ = 0;  ///< absolute cycle of offset 0
};

}  // namespace rc
