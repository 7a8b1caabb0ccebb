#include "sim/synthetic.hpp"

#include "sim/telemetry.hpp"
#include "sim/validator.hpp"

namespace rc {

SyntheticTraffic::~SyntheticTraffic() = default;

SyntheticTraffic::SyntheticTraffic(const NocConfig& cfg, double rate,
                                   int service_cycles, std::uint64_t seed,
                                   int shards)
    : cfg_(cfg), rate_(rate), service_(service_cycles) {
  net_ = std::make_unique<Network>(cfg_);
  validator_ = Validator::maybe_attach(net_.get());
  telemetry_ = Telemetry::maybe_attach(net_.get());
  const int n = cfg_.num_nodes();
  Rng root(seed);
  nodes_.resize(static_cast<std::size_t>(n));
  drivers_.resize(static_cast<std::size_t>(n));  // stable before seal
  for (NodeId i = 0; i < n; ++i) {
    nodes_[i].rng = root.fork(i + 1);
    draw_next_inject(nodes_[i], 0);  // first candidate cycle is 0
    drivers_[i].t = this;
    drivers_[i].node = i;
  }
  net_->set_deliver([this](NodeId node, const MsgPtr& m) {
    // Runs on the shard that owns `node`; touches only that node's state.
    NodeState& st = nodes_[node];
    if (m->type == MsgType::GetS) {
      // Echo a data reply after the service time (like an L2 hit).
      auto rep = std::make_shared<Message>();
      // Node-tagged ids keep ids unique and shard-invariant.
      rep->id = (static_cast<std::uint64_t>(node) << 40) | ++st.next_id;
      rep->type = MsgType::L2Reply;
      rep->src = node;
      rep->dest = m->src;
      rep->addr = m->addr;
      rep->size_flits = flits_of(rep->type);
      const Cycle due = m->delivered + service_;
      st.pending_replies.emplace(due, rep);
      drivers_[node].wake(due);  // same shard: the NI delivering is local
    } else {
      ++st.replies_done;
    }
  });
  // Serial tick order: drivers of the shard's nodes, then the fabric.
  engine_.build(*net_, shards, [this](ShardSchedule& s, const ShardRange& r) {
    for (NodeId i = r.begin; i < r.end; ++i)
      s.add(&drivers_[i], "synthetic driver");
  });
}

void SyntheticTraffic::tick_node(NodeId i, Cycle now) {
  NodeState& st = nodes_[i];
  while (!st.pending_replies.empty() &&
         st.pending_replies.begin()->first <= now) {
    net_->send(st.pending_replies.begin()->second, now);
    st.pending_replies.erase(st.pending_replies.begin());
  }
  if (st.next_inject > now) return;
  // The frontier keeps a due injection from ever being slept through; in
  // Verify mode the driver ticks every cycle and walks onto the stamp the
  // same way.
  RC_ASSERT(st.next_inject == now, "synthetic driver missed its injection");
  const int n = cfg_.num_nodes();
  NodeId dest = static_cast<NodeId>(st.rng.next_below(n));
  if (dest != i) {  // self-sends are dropped, matching the per-cycle driver
    auto req = std::make_shared<Message>();
    req->id = (static_cast<std::uint64_t>(i) << 40) | ++st.next_id;
    req->type = MsgType::GetS;
    req->src = i;
    req->dest = dest;
    // Unique line per transaction (node-tagged) keeps circuit identities
    // distinct.
    req->addr = ((static_cast<Addr>(i) << 32) + ++st.next_addr) * kLineBytes;
    req->size_flits = flits_of(req->type);
    net_->send(req, now);
    ++st.requests_done;
  }
  draw_next_inject(st, now + 1);
}

SyntheticResult SyntheticTraffic::run(Cycle warmup, Cycle measure) {
  engine_.run(warmup);
  net_->reset_stats();
  if (telemetry_) telemetry_->note_stats_reset(engine_.now());
  for (NodeState& st : nodes_) st.requests_done = 0;
  engine_.run(measure);

  SyntheticResult r;
  r.offered_load = rate_ * 100.0;
  for (const NodeState& st : nodes_) r.requests_done += st.requests_done;
  r.net = net_->merged_stats();
  auto mean = [&](const char* k) {
    const Accumulator* a = r.net.find_acc(k);
    return a && a->count() ? a->mean() : 0.0;
  };
  r.request_latency = mean("lat_net_req");
  r.reply_latency = mean("lat_net_rep_circ");
  r.reply_queueing = mean("lat_q_rep_circ");
  auto c = [&](const char* k) {
    return static_cast<double>(r.net.counter_value(k));
  };
  double replies = c("reply_used") + c("reply_partial") + c("reply_failed") +
                   c("reply_undone") + c("reply_eligible_nocirc");
  r.circuit_use = replies > 0 ? (c("reply_used") + c("reply_partial")) / replies
                              : 0.0;
  return r;
}

}  // namespace rc
