#include "coherence/l1_cache.hpp"

#include <string>
#include <vector>

#include "common/state.hpp"
#include "noc/network.hpp"

namespace rc {

L1Cache::L1Cache(NodeId node, const CacheConfig& cfg, Network* net,
                 const AddressMap* amap, StatSet* stats)
    : node_(node), cfg_(cfg), net_(net), amap_(amap), stats_(stats),
      array_(cfg.l1_sets, cfg.l1_ways) {}

MsgPtr L1Cache::make(MsgType t, NodeId dest, Addr addr) const {
  auto m = std::make_shared<Message>();
  // ids are unique within one System (and stable across runs): tagged by
  // controller class and node so parallel Systems never share state.
  m->id = (1ull << 60) | (static_cast<std::uint64_t>(node_) << 40) |
          ++next_msg_id_;
  m->type = t;
  m->src = node_;
  m->dest = dest;
  m->addr = line_addr(addr);
  m->size_flits = flits_of(t);
  return m;
}

void L1Cache::send_later(MsgPtr msg, Cycle when) {
  outbox_.emplace(when, std::move(msg));
  wake(when);
}

bool L1Cache::access(Addr addr, bool is_write, Cycle now) {
  if (mshr_.active || hit_done_ != kNeverCycle) return false;
  addr = line_addr(addr);
  auto* line = array_.find(addr);
  if (line) array_.touch(*line, now);
  if (line && (!is_write || line->meta.st == L1State::E ||
               line->meta.st == L1State::M)) {
    if (is_write) line->meta.st = L1State::M;  // silent E->M upgrade
    ++stats_->at(is_write ? Ctr::l1_write_hit : Ctr::l1_read_hit);
    hit_done_ = now + cfg_.l1_hit_latency;
    wake(hit_done_);
    return true;
  }
  // Miss (or S-state write upgrade).
  ++stats_->at(is_write ? Ctr::l1_write_miss : Ctr::l1_read_miss);
  mshr_ = Mshr{true, addr, is_write, now};
  auto req = make(is_write ? MsgType::GetX : MsgType::GetS,
                  amap_->home_l2(addr), addr);
  send_later(std::move(req), now + cfg_.l1_hit_latency);  // tag lookup first
  return true;
}

L1Cache::Line* L1Cache::evict_for(Addr addr, Cycle now) {
  if (auto* way = array_.free_way(addr)) return way;
  auto* v = array_.victim(addr, [](Addr, const auto&) { return true; });
  RC_ASSERT(v != nullptr, "L1 set has no evictable line");
  if (v->meta.st == L1State::M || v->meta.st == L1State::E) {
    // Table 3, L1 replacement: data to home L2, acknowledged with L2WbAck.
    const Addr tag = array_.tag_of(*v);
    auto wb = make(MsgType::WbData, amap_->home_l2(tag), tag);
    send_later(std::move(wb), now);
    ++stats_->at(Ctr::l1_writebacks);
  } else {
    ++stats_->at(Ctr::l1_silent_evicts);
  }
  array_.invalidate(*v);
  return v;
}

void L1Cache::fill(Addr addr, bool exclusive, Cycle now) {
  RC_ASSERT(mshr_.active && mshr_.addr == addr, "fill without matching MSHR");
  auto* line = array_.find(addr);
  if (!line) line = array_.install(evict_for(addr, now), addr, now);
  array_.touch(*line, now);
  line->meta.st = mshr_.is_write ? L1State::M
                 : exclusive     ? L1State::E
                                 : L1State::S;
  mshr_.active = false;
  if (complete_) complete_(now);
}

void L1Cache::handle(const MsgPtr& msg, Cycle now) {
  switch (msg->type) {
    case MsgType::L2Reply: {
      fill(msg->addr, msg->exclusive, now);
      if (!msg->ack_elided) {
        auto ack = make(MsgType::L1DataAck, msg->src, msg->addr);
        send_later(std::move(ack), now);
      }
      break;
    }
    case MsgType::L1ToL1: {
      fill(msg->addr, /*exclusive=*/mshr_.is_write, now);
      auto ack =
          make(MsgType::L1DataAck, amap_->home_l2(msg->addr), msg->addr);
      send_later(std::move(ack), now);
      break;
    }
    case MsgType::Inv: {
      if (auto* line = array_.find(msg->addr)) {
        if (msg->downgrade)
          line->meta.st = L1State::S;  // recall-for-read keeps the copy
        else
          array_.invalidate(*line);
      }
      auto ack = make(MsgType::L1InvAck, msg->src, msg->addr);
      send_later(std::move(ack), now + cfg_.l1_hit_latency);
      break;
    }
    case MsgType::FwdGetS: {
      // Supply the data directly to the requestor and downgrade. A line
      // already written back races here benignly: the WB buffer still holds
      // the data, so we respond regardless.
      if (auto* line = array_.find(msg->addr)) line->meta.st = L1State::S;
      auto d = make(MsgType::L1ToL1, msg->fwd_requestor, msg->addr);
      d->undone_marker = msg->undone_marker;
      send_later(std::move(d), now + cfg_.l1_hit_latency);
      break;
    }
    case MsgType::FwdGetX: {
      if (auto* line = array_.find(msg->addr)) array_.invalidate(*line);
      auto d = make(MsgType::L1ToL1, msg->fwd_requestor, msg->addr);
      d->undone_marker = msg->undone_marker;
      send_later(std::move(d), now + cfg_.l1_hit_latency);
      break;
    }
    case MsgType::L2WbAck:
      ++stats_->at(Ctr::l1_wb_acked);
      break;
    default:
      fatal(std::string("L1 received unexpected message ") +
            to_string(msg->type));
  }
}

void L1Cache::tick(Cycle now) {
  if (hit_done_ != kNeverCycle && hit_done_ <= now) {
    hit_done_ = kNeverCycle;
    if (complete_) complete_(now);
  }
  while (!outbox_.empty() && outbox_.begin()->first <= now) {
    net_->send(outbox_.begin()->second, now);
    outbox_.erase(outbox_.begin());
  }
}

L1State L1Cache::state_of(Addr addr) {
  auto* line = array_.find(addr);
  return line ? line->meta.st : L1State::I;
}

void L1Cache::prewarm_line(Addr addr, L1State st) {
  const auto p = array_.probe(addr);
  if (p.hit || !p.line) return;  // present, or a full set: no warm-up evictions
  array_.install(p.line, addr, 0)->meta.st = st;
}

void L1Cache::save(StateWriter& w) const {
  w.u64(array_.size());
  for (std::size_t i = 0; i < array_.size(); ++i) {
    w.b(array_.valid(i));
    w.u64(array_.tag(i));
    w.u64(array_.stamp(i));
    w.u8(static_cast<std::uint8_t>(array_.line(i).meta.st));
  }
  w.b(mshr_.active);
  w.u64(mshr_.addr);
  w.b(mshr_.is_write);
  w.u64(mshr_.issued);
  w.u64(next_msg_id_);
  w.u64(hit_done_);
  w.u64(outbox_.size());
  for (const auto& [cyc, m] : outbox_) {
    w.u64(cyc);
    save_msg_ref(w, m);
  }
}

bool L1Cache::load(StateReader& r) {
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  if (n != array_.size())
    return r.fail("L1 has " + std::to_string(array_.size()) +
                  " lines, snapshot has " + std::to_string(n));
  std::vector<Cycle> stamps(array_.size());
  for (std::size_t i = 0; i < array_.size(); ++i) {
    bool valid;
    Addr tag;
    std::uint8_t st;
    if (!(r.b(&valid) && r.u64(&tag) && r.u64(&stamps[i]) && r.u8(&st)))
      return false;
    if (st > static_cast<std::uint8_t>(L1State::M))
      return r.fail("L1 line state out of range");
    if (const char* why = array_.restore(i, valid, tag))
      return r.fail("L1 of node " + std::to_string(node_) + ", line " +
                    std::to_string(i) + ": " + why);
    array_.line(i).meta.st = static_cast<L1State>(st);
  }
  array_.restore_stamps(stamps);
  if (!(r.b(&mshr_.active) && r.u64(&mshr_.addr) && r.b(&mshr_.is_write) &&
        r.u64(&mshr_.issued) && r.u64(&next_msg_id_) && r.u64(&hit_done_) &&
        r.u64(&n)))
    return false;
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
