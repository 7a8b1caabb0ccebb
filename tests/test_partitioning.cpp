// Partitioned-operation extension (§5.5): address homing, traffic
// isolation, and end-to-end behaviour.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "coherence/address_map.hpp"
#include "cpu/workload.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

namespace rc {
namespace {

TEST(PartitionMap, PartitionOfNodes) {
  Topology topo(8, 8);
  AddressMap amap(&topo, 4);
  EXPECT_TRUE(amap.partitioned());
  EXPECT_EQ(amap.num_partitions(), 4);
  EXPECT_EQ(amap.partition_of(0), 0);    // (0,0)
  EXPECT_EQ(amap.partition_of(7), 1);    // (7,0)
  EXPECT_EQ(amap.partition_of(32), 2);   // (0,4)
  EXPECT_EQ(amap.partition_of(63), 3);   // (7,7)
}

TEST(PartitionMap, PartitionNodesCoverChipExactlyOnce) {
  Topology topo(8, 8);
  AddressMap amap(&topo, 4);
  std::set<NodeId> all;
  for (int p = 0; p < amap.num_partitions(); ++p) {
    auto nodes = amap.partition_nodes(p);
    EXPECT_EQ(nodes.size(), 16u);
    for (NodeId n : nodes) {
      EXPECT_TRUE(all.insert(n).second) << "node " << n << " twice";
      EXPECT_EQ(amap.partition_of(n), p);
    }
  }
  EXPECT_EQ(all.size(), 64u);
}

TEST(PartitionMap, PrivateAddressesHomeInOwnersPartition) {
  Topology topo(8, 8);
  AddressMap amap(&topo, 4);
  for (NodeId core : {0, 9, 23, 40, 63}) {
    Addr a = kPrivateBase + static_cast<Addr>(core) * kPrivateStride +
             3 * kLineBytes;
    EXPECT_EQ(amap.partition_of_addr(a), amap.partition_of(core)) << core;
    EXPECT_EQ(amap.partition_of(amap.home_l2(a)), amap.partition_of(core))
        << core;
  }
}

TEST(PartitionMap, SharedSlicesHomeInTheirPartition) {
  Topology topo(8, 8);
  AddressMap amap(&topo, 4);
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 64; ++i) {
      Addr a = kSharedBase + static_cast<Addr>(p) * kPartitionSharedSpan +
               static_cast<Addr>(i) * kLineBytes;
      EXPECT_EQ(amap.partition_of_addr(a), p);
      EXPECT_EQ(amap.partition_of(amap.home_l2(a)), p);
    }
  }
}

TEST(PartitionMap, MonolithicIsUnchanged) {
  Topology topo(8, 8);
  AddressMap mono(&topo, 0);
  EXPECT_FALSE(mono.partitioned());
  EXPECT_EQ(mono.num_partitions(), 1);
  EXPECT_EQ(mono.home_l2(5 * kLineBytes), 5);
  EXPECT_EQ(mono.partition_nodes(0).size(), 64u);
}

TEST(PartitionMap, PartitionSlotIndexesPartitionNodes) {
  Topology topo(8, 8);
  for (int pside : {0, 2, 4}) {
    AddressMap amap(&topo, pside);
    for (NodeId n = 0; n < 64; ++n)
      EXPECT_EQ(amap.partition_nodes(amap.partition_of(n))
                    [static_cast<std::size_t>(amap.partition_slot(n))],
                n)
          << "pside " << pside << " node " << n;
  }
}

// homed_lines is what bank-major prewarm enumerates: for every bank and
// every region, its progression must be exactly the region's lines that
// home_l2 sends to that bank, ascending, and empty outside the region's
// partition. Regions are the prewarm ones (private regions, shared and
// migratory slices) plus line-offset ones, so the progression's start
// is exercised away from a partition-size boundary.
TEST(PartitionMap, HomedLinesMatchHomeL2) {
  for (int side : {4, 8, 16}) {
    Topology topo(side, side);
    const int n = side * side;
    for (int pside : {0, 2, 4}) {
      if (pside > 0 && side % pside != 0) continue;
      AddressMap amap(&topo, pside);
      struct Region {
        Addr base;
        std::uint64_t lines;
      };
      std::vector<Region> regions;
      for (NodeId c = 0; c < n; ++c) {
        const Addr base =
            kPrivateBase + static_cast<Addr>(c) * kPrivateStride;
        regions.push_back({base, 1000});
        regions.push_back({base + 7 * kLineBytes, 333});
      }
      for (int p = 0; p < amap.num_partitions(); ++p) {
        const Addr soff = static_cast<Addr>(p) * kPartitionSharedSpan;
        regions.push_back({kSharedBase + soff, 1000});
        regions.push_back({kMigratoryBase + soff, 1000});
        regions.push_back({kSharedBase + soff + 3 * kLineBytes, 500});
      }
      for (const Region& r : regions) {
        std::vector<std::vector<std::uint64_t>> want(
            static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < r.lines; ++i)
          want[amap.home_l2(r.base + i * kLineBytes)].push_back(i);
        const int rp = amap.partition_of_addr(r.base);
        for (NodeId b = 0; b < n; ++b) {
          const auto [first, step] = amap.homed_lines(r.base, r.lines, b);
          std::vector<std::uint64_t> got;
          for (std::uint64_t i = first; i < r.lines; i += step)
            got.push_back(i);
          ASSERT_EQ(got, want[b]) << "side " << side << " pside " << pside
                                  << " base " << std::hex << r.base
                                  << std::dec << " bank " << b;
          if (amap.partition_of(b) != rp) {
            ASSERT_GE(first, r.lines) << "bank " << b;
          }
        }
      }
    }
  }
}

RunResult run_partitioned(const std::string& preset, int pside) {
  SystemConfig cfg = make_system_config(64, preset, "fft", 3);
  cfg.partition_side = pside;
  cfg.warmup_cycles = 4'000;
  cfg.measure_cycles = 12'000;
  return run_config(cfg, preset);
}

TEST(Partitioned, RunsCleanlyAcrossVariants) {
  for (const char* preset :
       {"Baseline", "Complete_NoAck", "SlackDelay1_NoAck", "Fragmented"}) {
    RunResult r = run_partitioned(preset, 4);
    EXPECT_GT(r.retired, 10'000u) << preset;
  }
}

TEST(Partitioned, ShorterPathsThanMonolithic) {
  RunResult mono = run_partitioned("Baseline", 0);
  RunResult part = run_partitioned("Baseline", 4);
  const Accumulator* lm = mono.net.find_acc("lat_net_req");
  const Accumulator* lp = part.net.find_acc("lat_net_req");
  ASSERT_NE(lm, nullptr);
  ASSERT_NE(lp, nullptr);
  EXPECT_LT(lp->mean(), lm->mean());
}

TEST(Partitioned, CircuitsWorkBetterInsidePartitions) {
  RunResult mono = run_partitioned("Complete_NoAck", 0);
  RunResult part = run_partitioned("Complete_NoAck", 4);
  ReplyBreakdown bm = reply_breakdown(mono);
  ReplyBreakdown bp = reply_breakdown(part);
  // §5.5: isolation restores 16-core-like circuit behaviour.
  EXPECT_GT(bp.used, bm.used);
  EXPECT_LT(bp.failed, bm.failed);
}

}  // namespace
}  // namespace rc
