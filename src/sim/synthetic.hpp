// Synthetic request-reply traffic driver for the raw NoC (no caches): each
// node injects fixed-rate requests to uniformly random destinations, and the
// destination echoes a 5-flit data reply after a fixed service time —
// exactly the pattern Reactive Circuits exploit, at a controllable load.
//
// Used by the load-sweep bench to study §5.5: "Under very adverse
// conditions, with heavy traffic loads, conflicts would be frequent and
// prevent complete circuits from being built... timed circuits reduce the
// time circuits keep virtual channels occupied, thus rising the threshold
// over which the network would be too congested."
//
// All driver state (RNG, id/address counters, pending echoes, counters) is
// per node, so the driver shards exactly like the fabric (common/shard.hpp)
// and its traffic is bit-identical for any shard count.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace rc {

class Telemetry;
class Validator;

struct SyntheticResult {
  double offered_load = 0;    ///< requests per node per 100 cycles
  double request_latency = 0; ///< mean network latency (cycles)
  double reply_latency = 0;
  double reply_queueing = 0;
  double circuit_use = 0;     ///< fraction of replies riding a circuit
  std::uint64_t requests_done = 0;
  StatSet net;
};

class SyntheticTraffic {
 public:
  /// `rate` = probability a node injects a request in a given cycle.
  /// `shards` follows SystemConfig::shards semantics: 0 defers to RC_SHARDS,
  /// > 0 is explicit; clamped to [1, num_nodes].
  SyntheticTraffic(const NocConfig& cfg, double rate, int service_cycles,
                   std::uint64_t seed = 1, int shards = 0);
  ~SyntheticTraffic();

  /// Run warm-up + measurement; returns aggregated metrics.
  SyntheticResult run(Cycle warmup, Cycle measure);

  /// Effective worker-shard count.
  int shards() const { return engine_.shards(); }

  /// Invariant checker attached when RC_CHECK=1, else nullptr.
  Validator* validator() { return validator_.get(); }
  /// Trace collector attached when RC_TELEMETRY=path, else nullptr.
  Telemetry* telemetry() { return telemetry_.get(); }

 private:
  /// One node's due work: release due echo replies, inject the request the
  /// pre-drawn injection schedule put at this cycle. Touches only that
  /// node's state — safe from its shard worker.
  void tick_node(NodeId i, Cycle now);

  struct NodeState {
    Rng rng;
    std::uint64_t next_id = 0;
    std::uint64_t next_addr = 0;
    std::uint64_t requests_done = 0;
    std::uint64_t replies_done = 0;
    /// Next cycle this node's Bernoulli process injects (kNeverCycle when
    /// rate is 0). Pre-drawing the per-cycle coin flips in a batch performs
    /// the exact same RNG draws in the exact same order as flipping one per
    /// cycle — the destination draw still happens at injection time — so
    /// traffic is byte-identical while quiet nodes skip whole sweeps.
    Cycle next_inject = 0;
    std::multimap<Cycle, MsgPtr> pending_replies;
  };

  /// Schedulable per-node driver: woken by the deliver callback when an
  /// echo reply is queued, and self-armed at next_inject.
  struct Driver : Ticker {
    SyntheticTraffic* t = nullptr;
    NodeId node = 0;
    void tick(Cycle now) { t->tick_node(node, now); }
    Cycle next_work(Cycle) const {
      const NodeState& st = t->nodes_[node];
      Cycle w = st.next_inject;
      if (!st.pending_replies.empty() &&
          st.pending_replies.begin()->first < w)
        w = st.pending_replies.begin()->first;
      return w;
    }
  };

  /// Set st.next_inject to the first cycle >= first_candidate whose
  /// Bernoulli coin comes up heads, drawing one coin per candidate cycle —
  /// the same draws, in the same order, as the per-cycle loop it replaces.
  void draw_next_inject(NodeState& st, Cycle first_candidate) {
    if (rate_ <= 0) {
      st.next_inject = kNeverCycle;
      return;
    }
    Cycle c = first_candidate;
    while (!st.rng.chance(rate_)) ++c;
    st.next_inject = c;
  }

  NocConfig cfg_;
  double rate_;
  int service_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Validator> validator_;
  /// Attached after (destroyed before) the validator — see sim/system.hpp.
  std::unique_ptr<Telemetry> telemetry_;
  std::vector<NodeState> nodes_;
  std::vector<Driver> drivers_;
  /// The clock and one schedule per shard; declared after the driven
  /// components so teardown unbinds stamps while they are alive.
  Engine engine_;
};

}  // namespace rc
