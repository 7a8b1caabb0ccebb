// Cache-array tests: the packed tag/payload CacheArray against a reference
// array-of-lines model (also past 2^32 cycles, where the 4-byte stamps
// rebase), plus the snapshot loaders' checks of what the packed tag index
// relies on (line-aligned tags, each in its own set, no repeats) and of
// restored stamps near and beyond 2^32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "coherence/cache_array.hpp"
#include "coherence/directory.hpp"
#include "common/state.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

namespace rc {
namespace {

struct Meta {
  int state = 0;
};

// ------------------------------------------------------- reference model
// The array-of-lines layout the packed array replaced: valid flag and tag
// stored in each line, every scan walking whole lines.
template <typename M>
class RefCacheArray {
 public:
  struct Line {
    bool valid = false;
    Addr tag = 0;
    Cycle last_used = 0;
    M meta{};
  };

  RefCacheArray(int sets, int ways, int index_stride = 1)
      : sets_(sets), ways_(ways), stride_(index_stride),
        lines_(static_cast<std::size_t>(sets) * ways) {}

  int set_of(Addr addr) const {
    Addr h = addr / kLineBytes / static_cast<Addr>(stride_);
    int lg = 0;
    while ((1 << (lg + 1)) <= sets_) ++lg;
    h ^= (h >> lg) ^ (h >> (2 * lg));
    return static_cast<int>(h % static_cast<Addr>(sets_));
  }

  Line* find(Addr addr) {
    Addr la = line_addr(addr);
    int s = set_of(la);
    for (int w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * ways_ + w];
      if (l.valid && l.tag == la) return &l;
    }
    return nullptr;
  }

  void touch(Line& l, Cycle now) { l.last_used = now; }

  Line* free_way(Addr addr) {
    int s = set_of(line_addr(addr));
    for (int w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * ways_ + w];
      if (!l.valid) return &l;
    }
    return nullptr;
  }

  template <typename Pred>
  Line* victim(Addr addr, Pred evictable) {
    int s = set_of(line_addr(addr));
    Line* best = nullptr;
    for (int w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * ways_ + w];
      if (!l.valid || !evictable(l)) continue;
      if (!best || l.last_used < best->last_used) best = &l;
    }
    return best;
  }

  Line* install(Addr addr, Cycle now) {
    Line* l = free_way(addr);
    RC_ASSERT(l != nullptr, "install without a free way");
    l->valid = true;
    l->tag = line_addr(addr);
    l->last_used = now;
    l->meta = M{};
    return l;
  }

  std::vector<Line>& lines() { return lines_; }

 private:
  int sets_, ways_;
  int stride_ = 1;
  std::vector<Line> lines_;
};

// Flat way index of a returned line (-1 for nullptr) in either layout.
long index_of(CacheArray<Meta>& arr, const CacheArray<Meta>::Line* l) {
  return l ? static_cast<long>(l - &arr.line(0)) : -1;
}
long ref_index_of(RefCacheArray<Meta>& ref,
                  const RefCacheArray<Meta>::Line* l) {
  return l ? static_cast<long>(l - ref.lines().data()) : -1;
}

struct Geometry {
  int sets, ways, stride;
};

constexpr Cycle kTwo32 = Cycle{1} << 32;

/// The cycle of reference-run operation `op`.
using Clock = std::function<Cycle(int op)>;
/// now/2 makes LRU ties.
Cycle from_zero(int op) { return static_cast<Cycle>(op / 2); }

/// `exact_stamps`: stamps equal the reference's cycles, as they do while no
/// rebase has happened.
void expect_same_state(CacheArray<Meta>& arr, RefCacheArray<Meta>& ref,
                       int op, bool exact_stamps) {
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const auto& r = ref.lines()[i];
    ASSERT_EQ(arr.valid(i), r.valid) << "way " << i << " after op " << op;
    // An invalid way keeps its last tag: L1/directory snapshots record it.
    ASSERT_EQ(arr.tag(i), r.tag) << "way " << i << " after op " << op;
    if (exact_stamps) {
      ASSERT_EQ(arr.stamp(i), r.last_used) << "way " << i;
    }
    ASSERT_EQ(arr.line(i).meta.state, r.meta.state) << "way " << i;
  }
}

void run_against_reference(const Geometry& g, std::uint64_t seed,
                           const Clock& clock = from_zero,
                           bool exact_stamps = true) {
  SCOPED_TRACE("geometry " + std::to_string(g.sets) + "x" +
               std::to_string(g.ways) + " stride " + std::to_string(g.stride));
  CacheArray<Meta> arr(g.sets, g.ways, g.stride);
  RefCacheArray<Meta> ref(g.sets, g.ways, g.stride);
  std::mt19937_64 rng(seed);

  // Twice the capacity in distinct lines, so sets fill and overflow.
  const std::size_t capacity = static_cast<std::size_t>(g.sets) * g.ways;
  std::set<Addr> distinct;
  while (distinct.size() < 2 * capacity)
    distinct.insert(line_addr(rng() & ((Addr{1} << 40) - 1)));
  const std::vector<Addr> pool(distinct.begin(), distinct.end());

  const int ops = static_cast<int>(std::max<std::size_t>(4000, 8 * capacity));
  for (int op = 0; op < ops; ++op) {
    // Offsets inside the line exercise line_addr.
    const Addr a = pool[rng() % pool.size()] + rng() % kLineBytes;
    const Cycle now = clock(op);
    ASSERT_EQ(arr.set_of(a), ref.set_of(a));
    auto* l = arr.find(a);
    auto* rl = ref.find(a);
    ASSERT_EQ(index_of(arr, l), ref_index_of(ref, rl)) << "find, op " << op;
    const auto probe = arr.probe(a);
    ASSERT_EQ(probe.hit, l != nullptr) << "probe, op " << op;
    ASSERT_EQ(probe.line, l ? l : arr.free_way(a)) << "probe, op " << op;
    switch (rng() % 5) {
      case 0:  // fill: install in a free way, or evict the LRU victim
      case 1: {
        if (l) break;
        auto* way = arr.free_way(a);
        ASSERT_EQ(index_of(arr, way), ref_index_of(ref, ref.free_way(a)))
            << "free_way, op " << op;
        if (!way) {
          way = arr.victim(a, [](Addr, const auto&) { return true; });
          auto* rv = ref.victim(a, [](const auto&) { return true; });
          ASSERT_EQ(index_of(arr, way), ref_index_of(ref, rv))
              << "victim, op " << op;
          arr.invalidate(*way);
          rv->valid = false;
        }
        const int st = static_cast<int>(rng() % 4);
        auto* in = arr.install(way, a, now);
        auto* rin = ref.install(a, now);
        ASSERT_EQ(index_of(arr, in), ref_index_of(ref, rin))
            << "install, op " << op;
        ASSERT_EQ(arr.tag_of(*in), rin->tag);
        in->meta.state = st;
        rin->meta.state = st;
        break;
      }
      case 2:  // hit
        if (l) {
          arr.touch(*l, now);
          ref.touch(*rl, now);
        }
        break;
      case 3:  // invalidate
        if (l) {
          arr.invalidate(*l);
          rl->valid = false;
        }
        break;
      case 4: {  // victim choice with a predicate on tag and payload
        const Addr pin = rng() % 3;
        auto* v = arr.victim(a, [&](Addr tag, const auto& x) {
          return (tag / kLineBytes) % 3 != pin && x.meta.state != 2;
        });
        auto* rv = ref.victim(a, [&](const auto& x) {
          return (x.tag / kLineBytes) % 3 != pin && x.meta.state != 2;
        });
        ASSERT_EQ(index_of(arr, v), ref_index_of(ref, rv))
            << "victim(pred), op " << op;
        if (v) {
          ASSERT_EQ(arr.tag_of(*v), rv->tag);
        }
        break;
      }
    }
    if (op % 997 == 0) expect_same_state(arr, ref, op, exact_stamps);
  }
  expect_same_state(arr, ref, ops, exact_stamps);
}

const Geometry kGeometries[] = {{1, 1, 1},  {1, 4, 1},   {6, 3, 1},
                                {8, 2, 1},  {128, 4, 1}, {1024, 16, 64}};

TEST(CacheArrayTest, MatchesArrayOfLinesReference) {
  std::uint64_t seed = 1;
  for (const Geometry& g : kGeometries) {
    run_against_reference(g, seed++);
    if (HasFatalFailure()) return;
  }
}

// The 4-byte stamps rebase once the clock passes 2^32 cycles beyond the
// array's base; every decision must still match the 64-bit reference. Only
// the stamp values themselves (ranks after a rebase) may differ.
TEST(CacheArrayTest, MatchesReferenceAcross2To32Cycles) {
  std::uint64_t seed = 11;
  for (const Geometry& g : kGeometries) {
    run_against_reference(
        g, seed++, [](int op) { return kTwo32 - 1000 + from_zero(op); },
        /*exact_stamps=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(CacheArrayTest, MatchesReferenceAcrossJumpsPast2To32) {
  std::uint64_t seed = 21;
  for (const Geometry& g : kGeometries) {
    // A jump of 1.5 x 2^32 cycles every 64 operations (each jump rebases
    // the whole array, and cycles truncated to 32 bits would run backwards
    // every other jump), LRU ties in between.
    run_against_reference(
        g, seed++,
        [](int op) {
          return from_zero(op) +
                 static_cast<Cycle>(op / 64) * (3 * (kTwo32 / 2) + 7);
        },
        /*exact_stamps=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(CacheArrayTest, RestoreRoundTripsValidAndStaleTags) {
  CacheArray<Meta> a(6, 3);
  std::mt19937_64 rng(9);
  for (int i = 0; i < 200; ++i) {
    const Addr x = line_addr(rng() & 0xffffff);
    if (a.find(x)) {
      a.invalidate(*a.find(x));
    } else if (auto* way = a.free_way(x)) {
      a.install(way, x, static_cast<Cycle>(i))->meta.state = i % 4;
    }
  }
  CacheArray<Meta> b(6, 3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(b.restore(i, a.valid(i), a.tag(i)), nullptr) << "way " << i;
    b.line(i) = a.line(i);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b.valid(i), a.valid(i));
    EXPECT_EQ(b.tag(i), a.tag(i));
    if (a.valid(i)) {
      EXPECT_EQ(b.find(a.tag(i)), &b.line(i));
    }
  }
}

TEST(CacheArrayTest, RestoreRejectsWhatThePackedIndexCannotHold) {
  CacheArray<Meta> a(8, 2);
  Addr in_set0[2] = {}, in_set1 = 0;
  int found = 0;
  for (Addr x = 0; found < 2 || !in_set1; x += kLineBytes) {
    if (a.set_of(x) == 0 && found < 2) in_set0[found++] = x;
    if (a.set_of(x) == 1 && !in_set1) in_set1 = x;
  }
  EXPECT_STREQ(a.restore(0, true, in_set0[0] + 8), "tag is not line-aligned");
  EXPECT_STREQ(a.restore(0, false, 1), "tag is not line-aligned");
  EXPECT_STREQ(a.restore(0, true, in_set1), "tag belongs to another set");
  ASSERT_EQ(a.restore(0, true, in_set0[0]), nullptr);
  EXPECT_STREQ(a.restore(1, true, in_set0[0]),
               "tag repeats a valid tag in its set");
  // An invalid way may hold a stale copy of a live tag (or any tag at all).
  EXPECT_EQ(a.restore(1, false, in_set0[0]), nullptr);
  EXPECT_EQ(a.restore(1, false, in_set1), nullptr);
  EXPECT_EQ(a.restore(1, true, in_set0[1]), nullptr);
  EXPECT_EQ(a.find(in_set0[1]), &a.line(1));
}

TEST(CacheArrayTest, InstallFindTouch) {
  CacheArray<Meta> arr(8, 2);
  EXPECT_EQ(arr.find(0x1000), nullptr);
  auto* l = arr.install(arr.free_way(0x1000), 0x1000, 5);
  ASSERT_NE(l, nullptr);
  l->meta.state = 3;
  auto* f = arr.find(0x1000 + 13);  // same line, different offset
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->meta.state, 3);
}

TEST(CacheArrayTest, VictimIsLru) {
  CacheArray<Meta> arr(1, 4);  // single set
  Addr a[5];
  for (int i = 0; i < 4; ++i) {
    a[i] = static_cast<Addr>(i) * 64;
    arr.install(arr.free_way(a[i]), a[i], static_cast<Cycle>(i + 1));
  }
  EXPECT_EQ(arr.free_way(0x9999), nullptr);
  arr.touch(*arr.find(a[0]), 100);  // a[0] becomes most recent
  auto* v = arr.victim(0x9999, [](Addr, const auto&) { return true; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(arr.tag_of(*v), a[1]);  // oldest untouched
}

TEST(CacheArrayTest, VictimRespectsPredicate) {
  CacheArray<Meta> arr(1, 2);
  arr.install(arr.free_way(0), 0, 1);
  arr.install(arr.free_way(64), 64, 2);
  auto* v = arr.victim(0x9999, [](Addr tag, const CacheArray<Meta>::Line&) {
    return tag != 0;  // line 0 is pinned
  });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(arr.tag_of(*v), 64u);
}

TEST(CacheArrayTest, HashedIndexSpreadsAlignedRegions) {
  // Power-of-two-aligned regions must not alias into a few sets (the bug
  // class that once crippled the distributed L2).
  CacheArray<Meta> arr(128, 4, /*stride=*/16);
  std::set<int> sets;
  for (int c = 0; c < 8; ++c) {
    Addr base = 0x1'0000'0000ull + static_cast<Addr>(c) * 0x0'1000'0000ull;
    for (int i = 0; i < 32; ++i)
      sets.insert(arr.set_of(base + static_cast<Addr>(i * 16) * 64));
  }
  EXPECT_GT(sets.size(), 64u);
}

// ------------------------------------------------------- snapshot loaders
// Each loader gets a section built with StateWriter holding two valid lines
// in set 1. It must accept the clean section, and refuse one with a defect
// planted in the second line, naming the cache and the way index. A sharer
// vector may hold ceil(nodes / 64) words: 1 for these 16 nodes.

/// The first `n` nonzero line addresses that a sets x ways / stride array
/// maps to `set`.
std::vector<Addr> tags_in_set(int sets, int ways, int stride, int set, int n) {
  CacheArray<Meta> probe(sets, ways, stride);
  std::vector<Addr> out;
  for (Addr x = kLineBytes; static_cast<int>(out.size()) < n; x += kLineBytes)
    if (probe.set_of(x) == set) out.push_back(x);
  return out;
}

enum class Defect { None, Unaligned, WrongSet, Repeat, WideSharers };

struct LoaderCase {
  Defect defect;
  const char* why;  ///< nullptr: the section must load
};
const LoaderCase kDefects[] = {
    {Defect::None, nullptr},
    {Defect::Unaligned, "tag is not line-aligned"},
    {Defect::WrongSet, "tag belongs to another set"},
    {Defect::Repeat, "tag repeats a valid tag in its set"},
    {Defect::WideSharers, "2 sharer words for 16 nodes"},
};

/// Valid tags for ways 0 and 1 of set 1 (flat indices ways, ways+1), with
/// the defect planted in way 1.
std::pair<Addr, Addr> planted_tags(Defect d, int sets, int ways, int stride) {
  const auto t = tags_in_set(sets, ways, stride, 1, 2);
  switch (d) {
    case Defect::None:
    case Defect::WideSharers:
      return {t[0], t[1]};
    case Defect::Unaligned:
      return {t[0], t[1] + 4};
    case Defect::WrongSet:
      return {t[0], tags_in_set(sets, ways, stride, 0, 1)[0]};
    case Defect::Repeat:
      return {t[0], t[0]};
  }
  return {};
}

SystemConfig small_config() {
  SystemConfig cfg = make_system_config(16, "Baseline", "fft");
  cfg.workload = "none";
  return cfg;
}

/// An L1 section whose valid lines hold `tags` in state S at flat indices
/// `first`, `first + 1`, ...: line k has stamp `stamp(k)`. Every other way
/// is invalid with tag 0 and stamp `idle`; the MSHR and outbox are empty.
std::string l1_section(std::size_t size, std::size_t first,
                       const std::vector<Addr>& tags,
                       const std::function<Cycle(int)>& stamp,
                       Cycle idle = 0) {
  StateWriter w;
  w.u64(size);
  for (std::size_t i = 0; i < size; ++i) {
    const bool valid = i >= first && i - first < tags.size();
    w.b(valid);
    w.u64(valid ? tags[i - first] : 0);
    w.u64(valid ? stamp(static_cast<int>(i - first)) : idle);
    w.u8(valid ? 1 : 0);
  }
  w.b(false);  // MSHR, message counter, hit timer, empty outbox
  w.u64(0);
  w.b(false);
  w.u64(0);
  w.u64(0);
  w.u64(kNeverCycle);
  w.u64(0);
  return w.data();
}

/// An L2 bank section whose valid lines hold `tags` at flat indices
/// `first`, `first + 1`, ...: line k has stamp `stamp(k)`, owner
/// `owner1 - 1`, no flags and no sharers; no directory or transactions.
std::string l2_section(std::size_t size, std::size_t first,
                       const std::vector<Addr>& tags,
                       const std::function<Cycle(int)>& stamp,
                       std::uint64_t owner1 = 0) {
  StateWriter w;
  w.u64(size);
  w.vu64(tags.size());
  for (std::size_t k = 0; k < tags.size(); ++k) {
    w.vu64(k == 0 ? first : 1);  // index gap
    w.vu64(tags[k] / kLineBytes);
    w.vu64(stamp(static_cast<int>(k)));
    w.u8(0);  // flags
    w.vu64(owner1);
    w.vu64(1);  // one sharer word, empty
    w.vu64(0);
  }
  w.b(false);  // no sparse directory
  w.u64(0);    // message counter, transactions, retries, outbox
  w.u64(0);
  w.u64(0);
  w.u64(0);
  return w.data();
}

/// A directory section whose valid entries hold `tags` at flat indices
/// `first`, `first + 1`, ...: entry k has stamp `stamp(k)`, owner `owner`
/// and no sharers. Every other way is invalid with tag 0 and stamp `idle`.
std::string dir_section(std::size_t size, std::size_t first,
                        const std::vector<Addr>& tags,
                        const std::function<Cycle(int)>& stamp,
                        Cycle idle = 0, NodeId owner = kInvalidNode) {
  StateWriter w;
  w.u64(size);
  for (std::size_t i = 0; i < size; ++i) {
    const bool valid = i >= first && i - first < tags.size();
    w.b(valid);
    w.u64(valid ? tags[i - first] : 0);
    w.u64(valid ? stamp(static_cast<int>(i - first)) : idle);
    w.i64(valid ? owner : kInvalidNode);
    w.u64(1);  // one sharer word, empty
    w.u64(0);
  }
  return w.data();
}

TEST(CacheArrayLoadTest, L1RejectsTagsThePackedIndexCannotHold) {
  const SystemConfig cfg = small_config();
  const int sets = cfg.cache.l1_sets, ways = cfg.cache.l1_ways;
  for (const LoaderCase& c : kDefects) {
    if (c.defect == Defect::WideSharers) continue;  // an L1 keeps no sharers
    const auto [t0, t1] = planted_tags(c.defect, sets, ways, 1);
    System sys(cfg);
    StateReader r(l1_section(static_cast<std::size_t>(sets) * ways,
                             static_cast<std::size_t>(ways), {t0, t1},
                             [](int) { return Cycle{0}; }));
    if (!c.why) {
      EXPECT_TRUE(sys.l1(3).load(r)) << r.error();
      EXPECT_EQ(sys.l1(3).state_of(t1), L1State::S);
      continue;
    }
    EXPECT_FALSE(sys.l1(3).load(r)) << c.why;
    EXPECT_NE(r.error().find("L1 of node 3, line " + std::to_string(ways + 1) +
                             ": " + c.why),
              std::string::npos)
        << r.error();
  }
}

TEST(CacheArrayLoadTest, L2RejectsTagsThePackedIndexCannotHold) {
  const SystemConfig cfg = small_config();
  const int sets = cfg.cache.l2_sets, ways = cfg.cache.l2_ways;
  const int banks = cfg.noc.num_nodes();
  // The L2 record stores tag / kLineBytes, so it cannot carry an unaligned
  // tag; the set, repeat and sharer-width checks apply.
  for (const LoaderCase& c : kDefects) {
    if (c.defect == Defect::Unaligned) continue;
    const auto [t0, t1] = planted_tags(c.defect, sets, ways, banks);
    StateWriter w;
    w.u64(static_cast<std::uint64_t>(sets) * ways);
    w.vu64(2);
    for (int k = 0; k < 2; ++k) {
      w.vu64(k == 0 ? static_cast<std::uint64_t>(ways) : 1);  // index gap
      w.vu64((k == 0 ? t0 : t1) / kLineBytes);
      w.vu64(0);  // last_used
      w.u8(0);    // flags
      w.vu64(0);  // owner + 1
      const int nw = k == 1 && c.defect == Defect::WideSharers ? 2 : 1;
      w.vu64(nw);  // sharer words, naming node 3
      for (int j = 0; j < nw; ++j) w.vu64(1u << 3);
    }
    w.b(false);  // no sparse directory
    w.u64(0);    // message counter, transactions, retries, outbox
    w.u64(0);
    w.u64(0);
    w.u64(0);
    System sys(cfg);
    StateReader r(w.data());
    if (!c.why) {
      EXPECT_TRUE(sys.l2(5).load(r)) << r.error();
      EXPECT_TRUE(sys.l2(5).has_line(t1));
      continue;
    }
    EXPECT_FALSE(sys.l2(5).load(r)) << c.why;
    EXPECT_NE(r.error().find("L2 bank 5, line " + std::to_string(ways + 1) +
                             ": " + c.why),
              std::string::npos)
        << r.error();
  }
}

TEST(CacheArrayLoadTest, DirectoryRejectsTagsThePackedIndexCannotHold) {
  const CacheConfig cfg;
  const int sets = cfg.dir_sets, ways = cfg.dir_ways, banks = 16;
  for (const LoaderCase& c : kDefects) {
    const auto [t0, t1] = planted_tags(c.defect, sets, ways, banks);
    StateWriter w;
    const std::size_t n = static_cast<std::size_t>(sets) * ways;
    w.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool planted = i == static_cast<std::size_t>(ways) ||
                           i == static_cast<std::size_t>(ways) + 1;
      w.b(planted);
      w.u64(!planted ? 0 : i == static_cast<std::size_t>(ways) ? t0 : t1);
      w.u64(0);
      w.i64(kInvalidNode);
      const bool wide = i == static_cast<std::size_t>(ways) + 1 &&
                        c.defect == Defect::WideSharers;
      const int nw = !planted ? 0 : wide ? 2 : 1;
      w.u64(nw);  // sharer words, naming node 3
      for (int j = 0; j < nw; ++j) w.u64(1u << 3);
    }
    Directory dir(cfg, banks);
    StateReader r(w.data());
    if (!c.why) {
      EXPECT_TRUE(dir.load(r)) << r.error();
      ASSERT_NE(dir.find(t1), nullptr);
      EXPECT_TRUE(dir.find(t1)->meta.sharers.test(3));
      continue;
    }
    EXPECT_FALSE(dir.load(r)) << c.why;
    EXPECT_NE(r.error().find("directory entry " + std::to_string(ways + 1) +
                             ": " + c.why),
              std::string::npos)
        << r.error();
  }
}

// --------------------------------------------------- restored LRU stamps
// Each loader gets a section whose set 1 is full, with stamps that straddle
// 2^32 (the array keeps them exactly, against a nonzero base) or span more
// than 2^32 (ranked per set). Misses into set 1 then evict the planted lines
// oldest first, ties by way index, as the 64-bit stamps order them; a line
// installed after the restore is newer than all of them. Sets hold 4 (L1),
// 16 (L2) or 8 (directory) ways, all coprime to 7, so w * 7 % ways permutes
// the ways; halving it gives every stamp a twin.

Cycle straddling_stamp(int w, int ways) {
  return kTwo32 - static_cast<Cycle>(ways) +
         4 * static_cast<Cycle>(w * 7 % ways / 2);
}
Cycle wide_stamp(int w, int ways) {
  return static_cast<Cycle>(w * 7 % ways / 2) * (kTwo32 + 3);
}

struct StampCase {
  const char* name;
  Cycle (*stamp)(int w, int ways);
  bool resaves_exactly;  ///< a ranked (wide) section re-saves other stamps
};
const StampCase kStampCases[] = {{"straddling 2^32", straddling_stamp, true},
                                 {"spanning over 2^32", wide_stamp, false}};

/// Set 1's ways in expected eviction order: by stamp, ties by way index.
std::vector<int> lru_order(const StampCase& c, int ways) {
  std::vector<int> order(static_cast<std::size_t>(ways));
  for (int w = 0; w < ways; ++w) order[static_cast<std::size_t>(w)] = w;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return c.stamp(a, ways) < c.stamp(b, ways);
  });
  return order;
}

/// A cycle after every planted stamp.
Cycle after_stamps(const StampCase& c, int ways) {
  Cycle hi = 0;
  for (int w = 0; w < ways; ++w) hi = std::max(hi, c.stamp(w, ways));
  return hi + 1;
}

/// Of `tags`, the indices whose line `present` reports gone, in index order.
std::vector<int> evicted(const std::vector<Addr>& tags,
                         const std::function<bool(Addr)>& present) {
  std::vector<int> out;
  for (std::size_t w = 0; w < tags.size(); ++w)
    if (!present(tags[w])) out.push_back(static_cast<int>(w));
  return out;
}
/// The first `k` of `order`, sorted.
std::vector<int> first_sorted(const std::vector<int>& order, int k) {
  std::vector<int> out(order.begin(), order.begin() + k);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CacheArrayStampTest, L1RestoresStampsPast2To32) {
  const SystemConfig cfg = small_config();
  const int sets = cfg.cache.l1_sets, ways = cfg.cache.l1_ways;
  const auto tags = tags_in_set(sets, ways, 1, 1, 2 * ways);
  const std::vector<Addr> planted(tags.begin(), tags.begin() + ways);
  for (const StampCase& c : kStampCases) {
    SCOPED_TRACE(c.name);
    // Invalid ways carry a stale stamp inside the straddling window.
    const std::string section = l1_section(
        static_cast<std::size_t>(sets) * ways, static_cast<std::size_t>(ways),
        planted, [&](int way) { return c.stamp(way, ways); },
        c.stamp(0, ways));
    System sys(cfg);
    L1Cache& l1 = sys.l1(3);
    StateReader r(section);
    ASSERT_TRUE(l1.load(r)) << r.error();
    if (c.resaves_exactly) {
      StateWriter again;
      l1.save(again);
      EXPECT_EQ(again.data(), section);
    }
    const auto order = lru_order(c, ways);
    Cycle now = after_stamps(c, ways);
    for (int k = 0; k < ways; ++k, ++now) {
      const Addr fresh = tags[static_cast<std::size_t>(ways + k)];
      ASSERT_TRUE(l1.access(fresh, false, now));
      auto reply = std::make_shared<Message>();
      reply->type = MsgType::L2Reply;
      reply->addr = fresh;
      reply->ack_elided = true;
      l1.handle(reply, now);
      ASSERT_EQ(l1.state_of(fresh), L1State::S);
      EXPECT_EQ(evicted(planted,
                        [&](Addr a) { return l1.state_of(a) != L1State::I; }),
                first_sorted(order, k + 1))
          << "after miss " << k;
    }
  }
}

TEST(CacheArrayLoadTest, L2RejectsAnOwnerOutsideTheMesh) {
  // The L2 owner is 16 bits wide: a larger id must fail the load, not wrap.
  const SystemConfig cfg = small_config();
  const int sets = cfg.cache.l2_sets, ways = cfg.cache.l2_ways;
  const int banks = cfg.noc.num_nodes();
  const auto tags = tags_in_set(sets, ways, banks, 1, 1);
  const std::size_t size = static_cast<std::size_t>(sets) * ways;
  for (const std::uint64_t owner1 : {std::uint64_t{16}, std::uint64_t{17},
                                     std::uint64_t{65536 + 4}}) {
    System sys(cfg);
    StateReader r(l2_section(size, static_cast<std::size_t>(ways), tags,
                             [](int) { return Cycle{0}; }, owner1));
    if (owner1 <= static_cast<std::uint64_t>(banks)) {
      EXPECT_TRUE(sys.l2(5).load(r)) << r.error();
      EXPECT_EQ(sys.l2(5).owner_of(tags[0]),
                static_cast<NodeId>(owner1) - 1);
      continue;
    }
    EXPECT_FALSE(sys.l2(5).load(r));
    EXPECT_NE(r.error().find("L2 bank 5, line " + std::to_string(ways) +
                             ": owner " + std::to_string(owner1 - 1) +
                             " out of range for 16 nodes"),
              std::string::npos)
        << r.error();
  }
}

TEST(CacheArrayLoadTest, DirectoryRejectsAnOwnerOutsideTheMesh) {
  const CacheConfig cfg;
  const int sets = cfg.dir_sets, ways = cfg.dir_ways, banks = 16;
  const auto tags = tags_in_set(sets, ways, banks, 1, 1);
  const std::size_t size = static_cast<std::size_t>(sets) * ways;
  for (const NodeId owner : {15, 16, -2}) {
    Directory dir(cfg, banks);
    StateReader r(dir_section(size, static_cast<std::size_t>(ways), tags,
                              [](int) { return Cycle{0}; }, 0, owner));
    if (owner < banks && owner >= kInvalidNode) {
      EXPECT_TRUE(dir.load(r)) << r.error();
      EXPECT_EQ(dir.find(tags[0])->meta.owner, owner);
      continue;
    }
    EXPECT_FALSE(dir.load(r));
    EXPECT_NE(r.error().find("directory entry " + std::to_string(ways) +
                             ": owner " + std::to_string(owner) +
                             " out of range for 16 nodes"),
              std::string::npos)
        << r.error();
  }
}

TEST(CacheArrayStampTest, L2RestoresStampsPast2To32) {
  const SystemConfig cfg = small_config();
  const int sets = cfg.cache.l2_sets, ways = cfg.cache.l2_ways;
  const int banks = cfg.noc.num_nodes();
  const auto tags = tags_in_set(sets, ways, banks, 1, 2 * ways);
  const std::vector<Addr> planted(tags.begin(), tags.begin() + ways);
  for (const StampCase& c : kStampCases) {
    SCOPED_TRACE(c.name);
    const std::string section =
        l2_section(static_cast<std::size_t>(sets) * ways,
                   static_cast<std::size_t>(ways), planted,
                   [&](int way) { return c.stamp(way, ways); });
    System sys(cfg);
    L2Bank& l2 = sys.l2(5);
    StateReader r(section);
    ASSERT_TRUE(l2.load(r)) << r.error();
    if (c.resaves_exactly) {
      StateWriter again;
      l2.save(again);
      EXPECT_EQ(again.data(), section);
    }
    const auto order = lru_order(c, ways);
    Cycle now = after_stamps(c, ways);
    for (int k = 0; k < ways; ++k, ++now) {
      // Each miss evicts a victim and blocks its own fetching line, which
      // later misses may not evict.
      auto req = std::make_shared<Message>();
      req->type = MsgType::GetS;
      req->src = 3;
      req->dest = 5;
      req->addr = tags[static_cast<std::size_t>(ways + k)];
      l2.handle(req, now);
      ASSERT_TRUE(l2.has_line(req->addr));
      EXPECT_EQ(evicted(planted, [&](Addr a) { return l2.has_line(a); }),
                first_sorted(order, k + 1))
          << "after miss " << k;
    }
  }
}

TEST(CacheArrayStampTest, DirectoryRestoresStampsPast2To32) {
  const CacheConfig cfg;
  const int sets = cfg.dir_sets, ways = cfg.dir_ways, banks = 16;
  const auto tags = tags_in_set(sets, ways, banks, 1, 2 * ways);
  for (const StampCase& c : kStampCases) {
    SCOPED_TRACE(c.name);
    const std::string section = dir_section(
        static_cast<std::size_t>(sets) * ways, static_cast<std::size_t>(ways),
        std::vector<Addr>(tags.begin(), tags.begin() + ways),
        [&](int way) { return c.stamp(way, ways); }, c.stamp(0, ways));
    Directory dir(cfg, banks);
    StateReader r(section);
    ASSERT_TRUE(dir.load(r)) << r.error();
    if (c.resaves_exactly) {
      StateWriter again;
      dir.save(again);
      EXPECT_EQ(again.data(), section);
    }
    // Touch one planted entry after the restore: it becomes the newest.
    const auto order = lru_order(c, ways);
    std::vector<int> expect(order.begin() + 1, order.end());
    expect.push_back(order.front());
    Cycle now = after_stamps(c, ways);
    dir.touch(*dir.find(tags[static_cast<std::size_t>(order.front())]), now);
    for (int k = 0; k < ways; ++k) {
      auto* v = dir.victim(tags[0], [](Addr) { return true; });
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(dir.tag_of(*v), tags[static_cast<std::size_t>(expect[k])])
          << "victim " << k;
      dir.release(*v);
      // A fresh entry takes the freed way, newer than every planted one.
      ASSERT_NE(dir.find_or_install(tags[static_cast<std::size_t>(ways + k)],
                                    ++now),
                nullptr);
    }
  }
}

}  // namespace
}  // namespace rc
