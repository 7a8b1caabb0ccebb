#include "sim/engine.hpp"

#include "noc/network.hpp"

namespace rc {

void Engine::build(Network& net, int configured, const AddComponents& add) {
  RC_ASSERT(net_ == nullptr, "Engine built twice");
  net_ = &net;
  const int n = net.topo().num_nodes();
  net.configure_shards(shard_ranges(n, effective_shards(configured, n)));
  for (const ShardRange& r : net.shard_ranges_of()) {
    auto s = std::make_unique<ShardSchedule>();
    add(*s, r);
    net.append_schedule(*s, r);
    s->seal();
    scheds_.push_back(std::move(s));
  }
}

void Engine::run(Cycle n) {
  const TickMode mode = net_->tick_mode();
  const Cycle end = now_ + n;
  // Fast-forward: once every shard's frontier proves nothing can happen
  // before cycle f, jump the clock straight to f. Legal only when the
  // scheduler is activity-driven (Verify ticks everything each cycle)
  // and no observer is attached — the validator's watchdog and the
  // telemetry sampler both require their per-cycle global scan.
  const bool ffwd = mode == TickMode::Activity && net_->observer() == nullptr;
  // Each shard sweeps its own schedule; cross-shard traffic parks in the
  // deferred link pipes until the barrier completion flushes it
  // (finish_cycle). now_ is only written there, with all workers parked,
  // so components reading it mid-cycle always see the current cycle.
  run_sharded(
      shards(), now_, end,
      [this, mode](int shard, Cycle c) { scheds_[shard]->sweep(c, mode); },
      [this, ffwd, end](Cycle c) -> Cycle {
        net_->finish_cycle(c);
        Cycle next = c + 1;
        if (ffwd) {
          // Mailbox flushes above may have lowered frontiers — read them
          // only now, with every worker parked.
          Cycle f = kNeverCycle;
          for (const auto& s : scheds_)
            if (s->frontier() < f) f = s->frontier();
          if (f > next) next = f;
        }
        if (next > end) next = end;
        now_ = next;
        return next;
      });
}

}  // namespace rc
