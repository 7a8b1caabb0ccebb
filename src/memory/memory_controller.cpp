#include "memory/memory_controller.hpp"

#include <string>

#include "common/state.hpp"
#include "noc/network.hpp"

namespace rc {

MemoryController::MemoryController(NodeId node, const CacheConfig& cfg,
                                   Network* net, StatSet* stats)
    : node_(node), cfg_(cfg), net_(net), stats_(stats) {}

void MemoryController::handle(const MsgPtr& msg, Cycle now) {
  auto reply = std::make_shared<Message>();
  reply->id = (3ull << 60) | (static_cast<std::uint64_t>(node_) << 40) |
              ++next_msg_id_;
  reply->src = node_;
  reply->dest = msg->src;
  reply->addr = msg->addr;
  switch (msg->type) {
    case MsgType::MemRead:
      reply->type = MsgType::MemData;
      ++stats_->at(Ctr::mem_reads);
      break;
    case MsgType::MemWb:
      reply->type = MsgType::MemAck;
      ++stats_->at(Ctr::mem_writebacks);
      break;
    default:
      fatal(std::string("MC received unexpected message ") +
            to_string(msg->type));
  }
  reply->size_flits = flits_of(reply->type);
  outbox_.emplace(now + cfg_.memory_latency, std::move(reply));
  wake(now + cfg_.memory_latency);
}

void MemoryController::tick(Cycle now) {
  while (!outbox_.empty() && outbox_.begin()->first <= now) {
    net_->send(outbox_.begin()->second, now);
    outbox_.erase(outbox_.begin());
  }
}

void MemoryController::save(StateWriter& w) const {
  w.u64(next_msg_id_);
  w.u64(outbox_.size());
  for (const auto& [cyc, m] : outbox_) {
    w.u64(cyc);
    save_msg_ref(w, m);
  }
}

bool MemoryController::load(StateReader& r) {
  std::uint64_t n;
  if (!(r.u64(&next_msg_id_) && r.u64(&n))) return false;
  outbox_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    Cycle cyc;
    MsgPtr m;
    if (!(r.u64(&cyc) && load_msg_ref(r, &m))) return false;
    outbox_.emplace(cyc, std::move(m));
  }
  return true;
}

}  // namespace rc
