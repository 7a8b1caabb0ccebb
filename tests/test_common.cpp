// Unit tests for the common module: pipes, RNG, stats, config helpers.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/pipe.hpp"
#include "common/rng.hpp"
#include "common/state.hpp"
#include "common/stats.hpp"
#include "noc/message.hpp"

namespace rc {
namespace {

TEST(Pipe, DeliversAfterLatency) {
  Pipe<int> p(2);
  p.push(42, 10);
  EXPECT_EQ(p.pop_ready(10), std::nullopt);
  EXPECT_EQ(p.pop_ready(11), std::nullopt);
  auto v = p.pop_ready(12);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(p.empty());
}

TEST(Pipe, PreservesFifoOrder) {
  Pipe<int> p(1);
  p.push(1, 0);
  p.push(2, 0);
  p.push(3, 1);
  EXPECT_EQ(*p.pop_ready(1), 1);
  EXPECT_EQ(*p.pop_ready(1), 2);
  EXPECT_EQ(p.pop_ready(1), std::nullopt);  // third is ready at 2
  EXPECT_EQ(*p.pop_ready(2), 3);
}

TEST(Pipe, FrontReadyPeeksWithoutConsuming) {
  Pipe<int> p(1);
  p.push(7, 0);
  EXPECT_EQ(p.front_ready(0), nullptr);
  ASSERT_NE(p.front_ready(1), nullptr);
  EXPECT_EQ(*p.front_ready(1), 7);
  EXPECT_EQ(p.size(), 1u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependentStreams) {
  Rng a(7);
  Rng c1 = a.fork(1), c2 = a.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Accumulator, MeanMinMax) {
  Accumulator a;
  a.add(1);
  a.add(3);
  a.add(5);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_NEAR(a.stddev(), 2.0, 1e-9);
}

TEST(Accumulator, MergeMatchesCombinedStream) {
  Accumulator a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Accumulator, VarianceStableAtLargeMean) {
  // Regression: the old sum-of-squares form (sum2 - n*m*m) cancels
  // catastrophically when samples cluster far from zero — at mean ~1e9 with
  // unit spread it returned garbage (often 0 or wildly wrong). The shifted
  // second moment keeps full precision.
  Accumulator a;
  const double base = 1e9;
  for (int i = 0; i < 7; ++i) a.add(base + i);  // 1e9 + {0..6}
  // True sample variance of {0..6} is 28/6.
  EXPECT_NEAR(a.variance(), 28.0 / 6.0, 1e-6);
  EXPECT_NEAR(a.mean(), base + 3.0, 1e-3);
}

TEST(Accumulator, MergeStableAtLargeMean) {
  // merge() rebases the other side's shifted moments; that rebase must not
  // reintroduce the cancellation the shift exists to avoid.
  Accumulator a, b, all;
  const double base = 1e9;
  for (int i = 0; i < 4; ++i) {
    a.add(base + i);
    all.add(base + i);
  }
  for (int i = 4; i < 7; ++i) {
    b.add(base + i);
    all.add(base + i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.variance(), 28.0 / 6.0, 1e-6);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Accumulator, MergeIsDeterministic) {
  // The sharded engine relies on fixed-order merges being bit-identical:
  // the same per-part accumulators merged in the same order must compare
  // equal with the default (bitwise) operator==.
  auto build = [] {
    Accumulator parts[3], merged;
    for (int p = 0; p < 3; ++p)
      for (int i = 0; i < 5; ++i) parts[p].add(1e6 + p * 100 + i * 3);
    for (int p = 0; p < 3; ++p) merged.merge(parts[p]);
    return merged;
  };
  EXPECT_TRUE(build() == build());
}

TEST(Accumulator, MergeEmptySides) {
  Accumulator empty, a;
  a.add(2.0);
  a.add(4.0);
  Accumulator m1 = empty;
  m1.merge(a);  // empty.merge(filled) adopts the other side wholesale
  EXPECT_TRUE(m1 == a);
  Accumulator m2 = a;
  m2.merge(empty);  // filled.merge(empty) is a no-op
  EXPECT_TRUE(m2 == a);
}

TEST(Histogram, PercentileZeroFractionIsZero) {
  // Regression: `seen >= target` fired immediately at target=0, so
  // percentile(0.0) answered with bucket 0's upper edge (1.0) even when
  // bucket 0 was empty.
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);  // empty histogram
  h.add(100.0);                              // lands far above bucket 0
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), 0.0);
}

TEST(Histogram, PercentileSkipsEmptyLeadingBuckets) {
  // All mass in the [64,128) bucket: every positive fraction must answer
  // with that bucket's upper edge, never an empty leading bucket's.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(100.0);
  EXPECT_DOUBLE_EQ(h.percentile(1e-9), 128.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 128.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 128.0);
}

TEST(Histogram, PercentileTopFractionIsTopOccupiedBucket) {
  Histogram h;
  h.add(0.5);    // bucket 0 (edge 1)
  h.add(100.0);  // [64,128) bucket (edge 128)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 128.0);
  EXPECT_DOUBLE_EQ(h.percentile(2.0), 128.0);  // clamped, not the table edge
}

TEST(StatSet, CountersAndReset) {
  StatSet s;
  s.at(Ctr::l2_hits) += 5;
  EXPECT_EQ(s.counter_value("l2_hits"), 5u);
  EXPECT_EQ(s.counter_value("l2_misses"), 0u);  // registered, never written
  s.reset();
  EXPECT_EQ(s.counter_value("l2_hits"), 0u);
}

TEST(StatSet, UnregisteredNameIsAProgrammingError) {
  StatSet s;
  EXPECT_THROW(s.counter_value("missing"), FatalError);
  EXPECT_THROW(s.find_acc("missing"), FatalError);
  EXPECT_THROW(s.find_hist("missing"), FatalError);
}

TEST(StatSet, Merge) {
  StatSet a, b;
  a.at(Ctr::l2_hits) = 1;
  b.at(Ctr::l2_hits) = 2;
  b.at(Ctr::l2_misses) = 3;
  b.at(Acc::lat_net_req).add(4.0);
  a.merge(b);
  EXPECT_EQ(a.counter_value("l2_hits"), 3u);
  EXPECT_EQ(a.counter_value("l2_misses"), 3u);
  ASSERT_NE(a.find_acc("lat_net_req"), nullptr);
  EXPECT_EQ(a.find_acc("lat_net_req")->count(), 1u);
}

TEST(StatRegistry, NamesAreUnique) {
  auto unique = [](const auto& names) {
    return std::set<std::string_view>(std::begin(names), std::end(names))
               .size() == std::size(names);
  };
  EXPECT_TRUE(unique(kCtrNames));
  EXPECT_TRUE(unique(kAccNames));
  EXPECT_TRUE(unique(kHistNames));
}

TEST(StatRegistry, MessageAndReplyRangesFollowTheirEnums) {
  for (int t = 0; t < kNumMsgTypes; ++t) {
    const auto mt = static_cast<MsgType>(t);
    EXPECT_EQ(stat_name(msg_stat(mt)), std::string("msg_") + to_string(mt));
  }
  int counted = 0;
  for (int c = 0; c < kNumReplyCategories; ++c) {
    const auto rc = static_cast<ReplyCategory>(c);
    if (!reply_counted(rc)) continue;
    ++counted;
    EXPECT_EQ(stat_name(reply_stat(rc)), std::string("reply_") + to_string(rc));
  }
  EXPECT_EQ(counted, 7);
  // The circuit manager indexes circ_reserve_1st.. by table occupancy.
  const int first = static_cast<int>(Ctr::circ_reserve_1st);
  EXPECT_EQ(stat_name(static_cast<Ctr>(first + 5)), "circ_reserve_6plus");
}

std::vector<std::string> counter_names(const StatSet& s) {
  std::vector<std::string> out;
  for (const auto& [k, v] : s.counters()) out.push_back(k);
  return out;
}

StatSet reloaded(const StatSet& s) {
  StateWriter w;
  s.save(w);
  StatSet out;
  StateReader r(w.data());
  EXPECT_TRUE(out.load(r)) << r.error();
  return out;
}

TEST(StatSet, SlotTouchedAtZeroSurvivesResetMergeAndSnapshot) {
  StatSet s;
  s.at(Ctr::buf_write);  // touched, still zero
  s.at(Acc::lat_net_req);
  const std::vector<std::string> want{"buf_write"};
  EXPECT_EQ(counter_names(s), want);
  s.reset();
  EXPECT_EQ(counter_names(s), want);
  StatSet merged;
  merged.merge(s);
  EXPECT_EQ(counter_names(merged), want);
  const StatSet back = reloaded(s);
  EXPECT_EQ(counter_names(back), want);
  const StatSet* sets[] = {&s, &merged, &back};
  for (const StatSet* x : sets) {
    ASSERT_NE(x->find_acc("lat_net_req"), nullptr);
    EXPECT_EQ(x->find_acc("lat_net_req")->count(), 0u);
  }
}

TEST(StatSet, UntouchedSlotIsAbsent) {
  StatSet s;
  EXPECT_TRUE(s.counters().empty());
  EXPECT_TRUE(s.accumulators().empty());
  EXPECT_TRUE(s.histograms().empty());
  EXPECT_EQ(s.find_acc("lat_net_req"), nullptr);
  EXPECT_EQ(s.find_hist("hist_req"), nullptr);
  s.at(Acc::lat_q_req).add(1.0);
  EXPECT_EQ(s.find_acc("lat_net_req"), nullptr);
  EXPECT_EQ(s.accumulators().size(), 1u);
}

TEST(StatSet, IteratesInByteWiseNameOrder) {
  StatSet s;
  s.at(Ctr::msg_local) = 1;
  s.at(Ctr::xbar) = 2;
  s.at(Ctr::msg_L2Reply) = 3;  // 'L' < 'l': sorts before msg_local
  const std::vector<std::string> want{"msg_L2Reply", "msg_local", "xbar"};
  EXPECT_EQ(counter_names(s), want);
}

TEST(StatSet, SnapshotRoundTripComparesEqual) {
  StatSet s;
  s.at(Ctr::l2_hits) = 7;
  s.at(Ctr::reply_used);
  s.at(Acc::lat_circuit_setup).add(3.5);
  s.at(Hist::hist_rep_circ).add(12.0);
  StatSet other;
  other.at(Ctr::xbar) = 1;  // load replaces the whole set
  StateWriter w;
  s.save(w);
  StateReader r(w.data());
  ASSERT_TRUE(other.load(r)) << r.error();
  EXPECT_TRUE(other == s);
}

// A STAT-format section: `names` as counters, no accumulators/histograms.
std::string stat_bytes(const std::vector<std::string>& names) {
  StateWriter w;
  w.u64(names.size());
  for (const std::string& n : names) {
    w.str(n);
    w.u64(1);
  }
  w.u64(0);
  w.u64(0);
  return w.data();
}

TEST(StatSet, LoadRejectsUnknownAndRepeatedNames) {
  for (const auto& [names, bad] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"l2_hits", "no_such_stat"}, "no_such_stat"},
           {{"l2_hits", "xbar", "l2_hits"}, "l2_hits"}}) {
    StatSet s;
    StateReader r(stat_bytes(names));
    EXPECT_FALSE(s.load(r));
    EXPECT_NE(r.error().find("'" + bad + "'"), std::string::npos) << r.error();
  }
  StatSet s;
  StateReader ok(stat_bytes({"l2_hits", "xbar"}));
  ASSERT_TRUE(s.load(ok)) << ok.error();
  EXPECT_EQ(s.counter_value("xbar"), 1u);
}

TEST(Config, HopCycleArithmetic) {
  NocConfig n;
  EXPECT_EQ(n.packet_hop_cycles(), 5);   // Table 4 + §4.7
  EXPECT_EQ(n.circuit_hop_cycles(), 2);  // §4.3
}

TEST(Config, CircuitVcCounts) {
  CircuitConfig c;
  EXPECT_EQ(c.num_circuit_vcs(), 0);
  c.mode = CircuitMode::Fragmented;
  EXPECT_EQ(c.num_circuit_vcs(), 2);
  c.mode = CircuitMode::Complete;
  EXPECT_EQ(c.num_circuit_vcs(), 1);
  EXPECT_TRUE(c.bufferless_circuit_vc());
  c.mode = CircuitMode::Ideal;
  EXPECT_FALSE(c.bufferless_circuit_vc());
}

TEST(Types, OppositeDirections) {
  EXPECT_EQ(opposite(Dir::North), Dir::South);
  EXPECT_EQ(opposite(Dir::East), Dir::West);
  EXPECT_EQ(opposite(Dir::West), Dir::East);
  EXPECT_EQ(opposite(Dir::South), Dir::North);
  EXPECT_EQ(opposite(Dir::Local), Dir::Local);
}

TEST(Types, LineAddrMasksOffset) {
  EXPECT_EQ(line_addr(0x1234), 0x1200u + 0x00u);
  EXPECT_EQ(line_addr(0x1240), 0x1240u);
  EXPECT_EQ(line_addr(0x127f), 0x1240u);
}

}  // namespace
}  // namespace rc
