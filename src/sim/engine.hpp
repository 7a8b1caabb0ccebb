// The cycle loop. Every host that advances a Network — System,
// SyntheticTraffic, the allocation test's bare mesh — owns one Engine,
// which partitions the fabric, builds one ShardSchedule per shard and
// advances the clock through run_sharded at every shard count, including 1.
// Each cycle every shard sweeps its schedule; the barrier completion runs
// Network::finish_cycle (cross-shard mailbox flush, the observer's scan)
// and then steps the clock or fast-forwards it to the earliest frontier.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/schedule.hpp"
#include "common/shard.hpp"
#include "common/types.hpp"

namespace rc {

class Network;

class Engine {
 public:
  /// Adds the host's own components of nodes [r.begin, r.end) to `s`, in
  /// the serial tick order; the engine appends the fabric's afterwards.
  using AddComponents =
      std::function<void(ShardSchedule& s, const ShardRange& r)>;

  /// Partition `net` into `configured` shards (SystemConfig::shards
  /// semantics: 0 defers to RC_SHARDS) and build and seal one schedule per
  /// shard. Call once, after every component `add` registers exists.
  void build(Network& net, int configured, const AddComponents& add);

  /// Advance the clock by `n` cycles. Fast-forwards over cycles every
  /// shard's frontier proves idle, unless the tick mode is Verify or an
  /// observer is attached (both need every cycle).
  void run(Cycle n);

  /// The next cycle to simulate. Written only between cycles (with every
  /// worker parked), so components may read it mid-cycle.
  Cycle now() const { return now_; }
  /// Restore the clock (snapshot load; between runs only).
  void set_now(Cycle c) { now_ = c; }
  /// Resolved worker-shard count.
  int shards() const { return static_cast<int>(scheds_.size()); }

 private:
  Network* net_ = nullptr;
  Cycle now_ = 0;
  std::vector<std::unique_ptr<ShardSchedule>> scheds_;
};

}  // namespace rc
