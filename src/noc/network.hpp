// The network fabric: routers, NIs, links, and the local (same-tile) bypass.
//
// Controllers call send(); the fabric delivers every message to the
// destination node's deliver callback. Messages between controllers of the
// same tile bypass the network (they never reach the router), matching the
// paper's accounting, which only counts messages that traverse the NoC.
//
// Execution models:
//  * Engine (sim/engine.hpp) — the simulation hosts' driver.
//    configure_shards() splits the nodes into contiguous ranges (see
//    common/shard.hpp), append_schedule() registers each range's fabric
//    components with that shard's schedule, and the barrier completion
//    calls finish_cycle(now), which flushes the deferred cross-shard pipes
//    and fires the observer's global scan. Statistics are per node and
//    merged on demand, so results are bit-identical for any shard count;
//  * bare — tick(now) advances every node of an unsharded network, for
//    unit tests and drivers that own no other components.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/pipe.hpp"
#include "common/shard.hpp"
#include "common/stats.hpp"
#include "noc/message_pool.hpp"
#include "noc/network_interface.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace rc {

class Network {
 public:
  explicit Network(const NocConfig& cfg);

  /// Inject a message at its source node (or deliver locally). Safe to call
  /// from the shard that owns msg->src.
  void send(const MsgPtr& msg, Cycle now);

  /// Observe every message handed to the fabric (tracing, liveness checks).
  /// The callback runs inside send(), on the shard that owns msg->src, so
  /// it must be thread-safe when the network runs more than one shard.
  void set_send_observer(std::function<void(const MsgPtr&, Cycle)> cb) {
    send_observer_ = std::move(cb);
  }

  /// Attach a passive fabric observer to every router, NI and circuit table
  /// (see noc/observer.hpp). Pass nullptr to detach. The observed network
  /// additionally fires NocObserver::on_network_cycle at the end of every
  /// tick() (bare) or from finish_cycle (Engine) — either way with a
  /// consistent global view.
  void set_observer(NocObserver* obs);
  NocObserver* observer() const { return obs_; }

  /// Delivery callback invoked at the destination node, with the node id.
  void set_deliver(std::function<void(NodeId, const MsgPtr&)> cb);
  /// §4.6 hook: reply head injected, with circuit usage flag.
  void set_reply_injected(std::function<void(NodeId, const MsgPtr&, bool)> cb);

  /// Bare tick: advance every node one cycle and fire the observer's scan.
  /// Only valid when at most one shard is configured (the default).
  void tick(Cycle now);

  // ---- sharded execution (see common/shard.hpp, sim/engine.hpp) ----
  /// Partition the fabric. Pipes whose producer and consumer routers live in
  /// different shards switch to deferred (mailbox) pushes. One range (the
  /// default) restores fully serial behaviour.
  void configure_shards(const std::vector<ShardRange>& ranges);
  int num_shards() const { return static_cast<int>(ranges_.size()); }
  const std::vector<ShardRange>& shard_ranges_of() const { return ranges_; }
  /// Barrier completion: flush the deferred cross-shard pipes that actually
  /// received pushes this cycle (each producer shard keeps a dirty list, so
  /// quiet boundaries cost nothing), waking the consuming Tickers, then fire
  /// the observer's global scan. Single-threaded by contract — all workers
  /// are parked.
  void finish_cycle(Cycle now);

  /// Register the fabric components of nodes [r.begin, r.end) with a shard
  /// schedule, in the serial tick order (bypass drains, NIs, routers). The
  /// Engine (sim/engine.hpp) builds one schedule per shard and drives the
  /// sweeps instead of calling tick(); the observer scan then comes from
  /// finish_cycle.
  void append_schedule(ShardSchedule& sched, const ShardRange& r);

  const Topology& topo() const { return topo_; }
  const NocConfig& config() const { return cfg_; }
  /// Scheduling mode in effect (config + RC_VERIFY_TICKS override,
  /// resolved once at construction).
  TickMode tick_mode() const { return mode_; }
  Router& router(NodeId n) { return *routers_[n]; }
  NetworkInterface& ni(NodeId n) { return *nis_[n]; }
  MessagePool& pool() { return pool_; }

  /// All node statistics merged in fixed node order (bit-identical for any
  /// shard count). This walks every node's slots — cache the result, don't
  /// call it per cycle.
  StatSet merged_stats() const;
  /// One node's statistics (routers, NI and fabric counters of that tile).
  StatSet& node_stats(NodeId n) { return node_stats_[n]; }
  void reset_stats();

  /// Flits still queued anywhere (for drain checks in tests).
  bool idle() const;

  /// Snapshot save/load of the whole fabric: message pool pins, every pipe
  /// (construction order is config-deterministic, so the deque index is the
  /// identity), per-node stats, NIs and routers. Load restores pipes first —
  /// their enqueues fire wakers and pending masks as an over-approximation —
  /// then the components overwrite the masks with saved values; the engine
  /// overwrites the schedules' wake stamps last. Call only at a cycle
  /// boundary (deferred mailboxes empty).
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  void drain_local(NodeId n, Cycle now);

  /// Schedulable wrapper for one node's same-tile bypass pipe: the pipe
  /// wakes it on push, so a schedule sweep visits it only when a local
  /// message is (or is about to be) deliverable.
  struct LocalDrain : Ticker {
    Network* net = nullptr;
    NodeId node = 0;
    void tick(Cycle now) { net->drain_local(node, now); }
    Cycle next_work(Cycle) const {
      return net->local_pipes_[node].next_ready();
    }
  };

  NocConfig cfg_;
  Topology topo_;
  std::vector<StatSet> node_stats_;  ///< sized before components; stable
  LatencyModel lat_;
  TickMode mode_;
  MessagePool pool_;

  // Stable-address pipe storage.
  std::deque<Pipe<Flit>> flit_pipes_;
  std::deque<Pipe<Credit>> credit_pipes_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::deque<Pipe<MsgPtr>> local_pipes_;  ///< same-tile bypass, one per node
  std::vector<LocalDrain> drains_;        ///< sized once in the constructor

  /// Inter-router link endpoints, recorded at wiring time so
  /// configure_shards can tell which pipes cross a shard boundary.
  /// (NI<->router pipes never cross: both ends are the same tile.)
  struct FlitLink {
    NodeId producer, consumer;
    Pipe<Flit>* pipe;
  };
  struct CreditLink {
    NodeId producer, consumer;
    Pipe<Credit>* pipe;
  };
  std::vector<FlitLink> flit_links_;
  std::vector<CreditLink> credit_links_;

  std::vector<ShardRange> ranges_;
  /// Per-producer-shard lists of deferred pipes with pending mailbox items;
  /// finish_cycle flushes and clears them (see PipeDirtyList).
  std::vector<PipeDirtyList> dirty_;

  std::function<void(NodeId, const MsgPtr&)> deliver_;
  std::function<void(const MsgPtr&, Cycle)> send_observer_;
  NocObserver* obs_ = nullptr;
};

}  // namespace rc
