#include "coherence/address_map.hpp"

#include "cpu/workload.hpp"

namespace rc {

AddressMap::AddressMap(const Topology* topo, int partition_side)
    : topo_(topo), pside_(partition_side) {
  const int n = topo_->num_nodes();
  parts_.resize(static_cast<std::size_t>(num_partitions()));
  slot_.resize(static_cast<std::size_t>(n));
  if (!partitioned()) {
    for (NodeId i = 0; i < n; ++i) parts_[0].push_back(i);
  } else {
    const int ppr = partitions_per_row();
    for (int p = 0; p < num_partitions(); ++p) {
      const int px = (p % ppr) * pside_;
      const int py = (p / ppr) * pside_;
      for (int y = py; y < py + pside_; ++y)
        for (int x = px; x < px + pside_; ++x)
          parts_[p].push_back(topo_->node_at({x, y}));
    }
  }
  for (const auto& nodes : parts_)
    for (std::size_t k = 0; k < nodes.size(); ++k)
      slot_[nodes[k]] = static_cast<int>(k);
}

int AddressMap::partition_of_addr(Addr addr) const {
  if (!partitioned()) return 0;
  if (addr >= kMigratoryBase)
    return static_cast<int>((addr - kMigratoryBase) / kPartitionSharedSpan) %
           num_partitions();
  if (addr >= kSharedBase)
    return static_cast<int>((addr - kSharedBase) / kPartitionSharedSpan) %
           num_partitions();
  if (addr >= kPrivateBase) {
    auto core = static_cast<NodeId>((addr - kPrivateBase) / kPrivateStride);
    if (core < topo_->num_nodes()) return partition_of(core);
  }
  return 0;
}

NodeId AddressMap::home_l2(Addr addr) const {
  if (!partitioned())
    return static_cast<NodeId>((addr / kLineBytes) % topo_->num_nodes());
  const auto& nodes = parts_[partition_of_addr(addr)];
  return nodes[(addr / kLineBytes) % nodes.size()];
}

AddressMap::HomedLines AddressMap::homed_lines(Addr base, std::uint64_t lines,
                                               NodeId bank) const {
  const int p = partition_of_addr(base);
  RC_DASSERT(lines == 0 ||
                 partition_of_addr(base + (lines - 1) * kLineBytes) == p,
             "region spans partitions");
  // home_l2 picks parts_[p][line % step], so the bank at slot k homes
  // exactly the lines congruent to k modulo the partition size.
  const std::uint64_t step = parts_[p].size();
  if (partition_of(bank) != p) return {lines, step};
  const std::uint64_t k = static_cast<std::uint64_t>(slot_[bank]);
  return {(k + step - (base / kLineBytes) % step) % step, step};
}

}  // namespace rc
