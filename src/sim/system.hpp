// Full-CMP assembly: cores, L1s, L2 banks with directory, memory
// controllers, and the (Reactive Circuits) NoC, all on one clock.
#pragma once

#include <memory>
#include <vector>

#include "coherence/address_map.hpp"
#include "coherence/l1_cache.hpp"
#include "coherence/l2_bank.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "cpu/apps.hpp"
#include "cpu/core.hpp"
#include "memory/memory_controller.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace rc {

class StateReader;
class StateWriter;
class Telemetry;
class Validator;

class System {
 public:
  explicit System(const SystemConfig& cfg);
  ~System();

  /// Warm up (stats discarded), then measure. Returns measured cycles.
  /// Caches are first warmed functionally (hot working sets installed with
  /// consistent directory state), standing in for the paper's 200M-cycle
  /// warm-up at laptop-scale simulation budgets.
  Cycle run();

  /// Functional cache warm-up (called by run(); idempotent).
  void prewarm();

  /// Advance the clock by `n` cycles (exposed for tests).
  void run_cycles(Cycle n);

  /// Reset all statistics (end of warm-up).
  void reset_stats();

  Cycle now() const { return engine_.now(); }
  const SystemConfig& config() const { return cfg_; }
  /// Scheduling mode in effect (config + environment overrides).
  TickMode tick_mode() const { return net_->tick_mode(); }
  Network& network() { return *net_; }
  /// Invariant checker attached when RC_CHECK=1, else nullptr.
  Validator* validator() { return validator_.get(); }
  /// Trace collector attached when RC_TELEMETRY=path, else nullptr.
  Telemetry* telemetry() { return telemetry_.get(); }
  /// Effective worker-shard count (cfg.shards / RC_SHARDS, resolved and
  /// clamped at construction).
  int shards() const { return engine_.shards(); }
  /// Controller statistics of every node merged in fixed node order
  /// (bit-identical for any shard count). Walks every node's slots — cache
  /// the result rather than calling per cycle.
  StatSet merged_sys_stats() const;
  /// One node's controller statistics (core, L1, L2 bank, MC of that tile).
  StatSet& node_sys_stats(NodeId n) { return node_sys_stats_[n]; }

  /// Snapshot body (sim/snapshot.hpp drives these): every stateful
  /// component in fixed order — cores, L1s, L2 banks, MCs, per-node stats,
  /// the fabric, then the attached observers. Call only at a cycle boundary
  /// (outside run_cycles), where cross-shard mailboxes are flushed.
  void save_state(StateWriter& w) const;
  /// Restore into a freshly constructed System (now() == 0) whose config
  /// matches the snapshot digest; sets the clock to `cycle` and marks the
  /// caches warm. Wake stamps need no restoration: a fresh System starts
  /// with every component awake, and the first sweep re-arms them exactly.
  bool load_state(StateReader& r, Cycle cycle);

  std::uint64_t total_retired() const;
  std::uint64_t retired_of(int core) const { return cores_[core]->retired(); }

  L1Cache& l1(NodeId n) { return *l1s_[n]; }
  L2Bank& l2(NodeId n) { return *l2s_[n]; }

 private:
  void deliver(NodeId node, const MsgPtr& msg);

  SystemConfig cfg_;
  bool prewarmed_ = false;
  /// Sized to num_nodes before any controller captures a pointer; each
  /// tile's controllers write only their own entry, so shard workers never
  /// share a StatSet.
  std::vector<StatSet> node_sys_stats_;

  std::unique_ptr<Network> net_;
  std::unique_ptr<Validator> validator_;
  /// Attached after (and destroyed before) the validator, so detaching the
  /// telemetry chain restores the validator as the network's observer.
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<AddressMap> amap_;
  std::vector<std::unique_ptr<L1Cache>> l1s_;
  std::vector<std::unique_ptr<L2Bank>> l2s_;
  std::vector<std::unique_ptr<MemoryController>> mcs_;  ///< indexed by node
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<AppProfile> core_profs_;
  /// The clock and one activity-frontier schedule per shard. Declared last:
  /// the schedules are destroyed first and hand the bound wake stamps back
  /// to the components (~ShardSchedule), which must still be alive.
  Engine engine_;
};

}  // namespace rc
