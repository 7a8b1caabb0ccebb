// Address interleaving: which L2 bank (and memory controller) owns a line.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "noc/topology.hpp"

namespace rc {

/// The shared L2 is distributed one bank per tile (Table 2); lines are
/// interleaved across all banks at cache-line granularity.
///
/// With partitioning enabled (§5.5: the paper argues future many-core
/// chips will be used as isolated partitions, Tilera-Hardwall style, with
/// Reactive Circuits operating independently inside each), the chip is
/// split into `side x side` tiles and every address is homed at a bank
/// INSIDE its community's partition, so no coherence traffic crosses a
/// partition boundary. Memory controllers stay global (memory is
/// off-chip).
class AddressMap {
 public:
  explicit AddressMap(const Topology* topo, int partition_side = 0);

  bool partitioned() const { return pside_ > 0; }
  int partition_side() const { return pside_; }
  int partitions_per_row() const { return topo_->width() / pside_; }
  int num_partitions() const {
    return partitioned()
               ? partitions_per_row() * (topo_->height() / pside_)
               : 1;
  }

  int partition_of(NodeId n) const {
    if (!partitioned()) return 0;
    Coord c = topo_->coord_of(n);
    return (c.y / pside_) * partitions_per_row() + c.x / pside_;
  }

  /// Nodes of partition `p`, row-major (every node when monolithic).
  const std::vector<NodeId>& partition_nodes(int p) const { return parts_[p]; }

  /// Index of node `n` within partition_nodes(partition_of(n)).
  int partition_slot(NodeId n) const { return slot_[n]; }

  /// Which partition an address belongs to (derived from the workload
  /// layout: private regions belong to their owning core's partition,
  /// shared/migratory slices are laid out per partition).
  int partition_of_addr(Addr addr) const;

  NodeId home_l2(Addr addr) const;

  /// The lines of a region homed at one bank, as line indices
  /// `first, first + step, ...` below the region's line count.
  struct HomedLines {
    std::uint64_t first;
    std::uint64_t step;
  };

  /// Which lines of the region [base, base + lines * kLineBytes) home_l2
  /// maps to `bank`. The region must lie in one partition's address range
  /// (a core's private region, or one partition's shared or migratory
  /// slice); `first >= lines` when the bank homes none of them, as for
  /// every bank outside that partition.
  HomedLines homed_lines(Addr base, std::uint64_t lines, NodeId bank) const;

  NodeId mem_ctrl(Addr addr) const { return topo_->mem_ctrl_for(addr); }

 private:
  const Topology* topo_;
  int pside_;
  std::vector<std::vector<NodeId>> parts_;  ///< partition_nodes, built once
  std::vector<int> slot_;                   ///< partition_slot per node
};

/// Byte span of one partition's shared (and migratory) slice when
/// partitioning is on; WorkloadGen offsets its regions by these.
inline constexpr Addr kPartitionSharedSpan = 0x0100'0000ull;  // 256K lines

}  // namespace rc
