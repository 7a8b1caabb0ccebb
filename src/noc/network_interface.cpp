#include "noc/network_interface.hpp"

#include <bit>

#include "common/state.hpp"
#include "noc/message_pool.hpp"
#include "noc/observer.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace rc {

NetworkInterface::NetworkInterface(NodeId id, const NocConfig& cfg,
                                   const Topology* topo, StatSet* stats,
                                   MessagePool* pool)
    : id_(id), cfg_(cfg), topo_(topo), stats_(stats), pool_(pool), lat_(cfg_) {
  RC_ASSERT(pool_ != nullptr, "NI needs a message pool");
  stats_->at(Ctr::ni_inject_flit);  // reported even while zero
}

void NetworkInterface::wire(Pipe<Flit>* inject, Pipe<Credit>* inject_credits,
                            Pipe<Flit>* eject, Pipe<Credit>* undo_out) {
  inject_ = inject;
  inject_credits_ = inject_credits;
  eject_ = eject;
  undo_out_ = undo_out;
}

void NetworkInterface::send(const MsgPtr& msg, Cycle now) {
  msg->created = now;
  if (vnet_of(msg->type) == VNet::Request) {
    msg->path_hops = topo_->hops(id_, msg->dest);
    msg->build_circuit = cfg_.circuit.uses_circuits() &&
                         request_builds_circuit(msg->type);
    msg->reply_size_flits = reply_flits_for_request(msg->type);
    req_q_.push_back(msg);
  } else {
    push_reply(msg);
  }
  wake(now);  // controllers send before the network phase of this cycle
}

void NetworkInterface::launch_undo(NodeId dest, Addr addr,
                                   std::uint64_t owner, Cycle now) {
  ++stats_->at(Ctr::circ_origin_undone);
  if (!undo_out_) return;
  Credit cr;
  cr.vnet = VNet::Reply;
  cr.vc = -1;
  cr.undo = UndoRecord{dest, addr, owner};
  undo_out_->push(cr, now);
  if (obs_) obs_->on_undo_launched(id_, dest, addr, owner, now);
}

bool NetworkInterface::undo_circuit(NodeId dest, Addr addr, Cycle now,
                                    bool expect_reply) {
  auto it = origins_.find({dest, addr});
  if (it == origins_.end()) return false;
  Origin& o = it->second;
  if (o.status != OriginStatus::Built || o.undo_deferred()) return false;
  if (o.riders > 0) {
    // A scrounger is still injecting: defer the tear-down until its tail
    // flit is in the network (it then stays ahead of the undo for good).
    o.deferred_undo_owners.push_back(o.req_id);
    o.undo_expect_reply = expect_reply;
    touch_origin(dest, addr);
    return true;
  }
  launch_undo(dest, addr, o.req_id, now);
  if (expect_reply) {
    o.status = OriginStatus::Undone;
    touch_origin(dest, addr);
  } else {
    erase_origin(it);
  }
  return true;
}

void NetworkInterface::tick(Cycle now) {
  // 1. Credits from the router's local input buffers.
  if (inject_credits_) {
    while (auto c = inject_credits_->pop_ready(now)) {
      if (c->vc < 0) continue;
      int& out = outstanding_[out_idx(static_cast<int>(c->vnet), c->vc)];
      if (out > 0) --out;
    }
  }
  // 2. Ejection. The tail flit releases the pool pin taken at injection;
  //    the returned owner keeps the message alive through delivery.
  if (eject_) {
    while (auto f = eject_->pop_ready(now)) {
      if (f->is_tail()) finish_delivery(pool_->release(f->msg), now);
    }
  }
  // 3. Injection: refill idle streams, then push at most one flit onto the
  //    local link, alternating between the two VN streams.
  for (int vn = 0; vn < kNumVNets; ++vn)
    if (!stream_[vn].active()) try_start_packet(static_cast<VNet>(vn), now);
  // A circuit reply owns the local link from its head (its departure cycle
  // is what the timed reservation was computed against) until its tail is
  // out (its flits must stream back-to-back or they would overrun the slots
  // reserved downstream, §4.7). Everything else round-robins.
  Stream& rep = stream_[static_cast<int>(VNet::Reply)];
  if (rep.active() && rep.on_circuit) {
    // Complete mode's circuit VC is bufferless and never stalls; Fragmented
    // circuit VCs are buffered and still obey the credit window.
    if (cfg_.circuit.bufferless_circuit_vc()) {
      inject_flit(rep, now);
    } else {
      int& out = outstanding_[out_idx(1, rep.vc)];
      if (out < cfg_.buffer_depth_flits) {
        ++out;
        inject_flit(rep, now);
      }
    }
    return;
  }
  for (int attempt = 0; attempt < kNumVNets; ++attempt) {
    Stream& s = stream_[rr_vn_];
    rr_vn_ = (rr_vn_ + 1) % kNumVNets;
    if (!s.active()) continue;
    // Buffered VCs need a free slot downstream; the bufferless circuit VC
    // of Complete mode never blocks.
    bool buffered = !(s.on_circuit && cfg_.circuit.bufferless_circuit_vc());
    if (buffered) {
      int& out = outstanding_[out_idx(s.msg->is_reply() ? 1 : 0, s.vc)];
      if (out >= cfg_.buffer_depth_flits) continue;
      ++out;
    }
    inject_flit(s, now);
    break;
  }
}

void NetworkInterface::start_stream(VNet vn, MsgPtr msg, int vc,
                                    bool on_circuit) {
  Stream& s = stream_[static_cast<int>(vn)];
  s.msg = std::move(msg);
  s.next_seq = 0;
  s.vc = vc;
  s.on_circuit = on_circuit;
}

bool NetworkInterface::try_start_packet(VNet vn, Cycle now) {
  int vc = 0;
  bool on_circuit = false;
  // Requests: the probe is message-independent (a free-VC probe with no
  // side effects), so the whole queue succeeds or fails together — probing
  // the front element is exactly equivalent to the full scan.
  if (vn == VNet::Request) {
    if (req_q_.empty() || !pick_free_vc(VNet::Request, false, &vc))
      return false;
    start_stream(vn, std::move(req_q_.front()), vc, false);
    req_q_.pop_front();
    return true;
  }
  if (rep_count_ == 0) return false;
  // Replies whose departure slot has opened must be probed again.
  while (!rep_held_.empty() && rep_held_.front().first <= now) {
    const auto [hold, seq] = rep_held_.front();
    std::pop_heap(rep_held_.begin(), rep_held_.end(), std::greater<>{});
    rep_held_.pop_back();
    if (seq < rep_lo_) continue;
    const RSlot& r = rslot(seq);
    if (!r.msg || r.state != RState::Held || r.hold != hold) continue;
    detach_reply(seq);
    file_reply(seq, Probe::Busy, 0);
  }
  // Per-scan snapshot: nothing a failing probe touches can change
  // outstanding_ (credits drain earlier in the tick) and origins only
  // disappear mid-scan, so it stays conservative. When a scrounge could
  // possibly succeed, the scrounge walk reads the whole origin table, so
  // every parked reply is visited.
  const bool scrounge_on = cfg_.circuit.reuse &&
                           cfg_.circuit.mode == CircuitMode::Complete &&
                           !cfg_.circuit.is_timed();
  const bool visit_parked =
      pick_free_vc(VNet::Reply, false, &vc) ||
      (scrounge_on && !origins_.empty() && pick_free_vc(VNet::Reply, true, &vc));
  // Walk the probe set (plus the parked set) in arrival order. A probe can
  // wake waiters further on; re-reading each bitmap word after every probe
  // picks them up in this same scan. The first word starts at rep_lo_: its
  // lower bits may belong to seqs one ring length on.
  for (std::uint64_t base = rep_lo_ & ~63ull; base < rep_hi_; base += 64) {
    const std::size_t w = (base & (rep_.size() - 1)) >> 6;
    for (int from = static_cast<int>(std::max(base, rep_lo_) - base);
         from < 64;) {
      const std::uint64_t bits = (rep_probe_[w] |
                                  (visit_parked ? rep_park_[w] : 0)) &
                                 (~0ull << from);
      if (bits == 0) break;
      from = std::countr_zero(bits);
      const std::uint64_t seq = base + static_cast<std::uint64_t>(from++);
      detach_reply(seq);
      RSlot& r = rslot(seq);
      Cycle hold = 0;
      const Probe p = probe_reply(r.msg, now, &vc, &on_circuit, &hold);
      if (p != Probe::Ok) {
        file_reply(seq, p, hold);
        continue;
      }
      start_stream(vn, std::move(r.msg), vc, on_circuit);
      --rep_count_;
      while (rep_lo_ < rep_hi_ && !rslot(rep_lo_).msg) ++rep_lo_;
      return true;
    }
  }
  return false;
}

void NetworkInterface::push_reply(MsgPtr msg) {
  if (rep_hi_ - rep_lo_ == rep_.size()) grow_replies();
  const std::uint64_t seq = rep_hi_++;
  rslot(seq) = RSlot{};
  rslot(seq).msg = std::move(msg);
  set_bit(rep_probe_, seq, true);
  ++rep_count_;
}

void NetworkInterface::grow_replies() {
  std::vector<RSlot> old = std::move(rep_);
  rep_.assign(std::max<std::size_t>(64, 2 * old.size()), RSlot{});
  rep_probe_.assign(rep_.size() / 64, 0);
  rep_park_.assign(rep_.size() / 64, 0);
  wait_heads_.assign(rep_.size(), kNoSeq);
  for (std::uint64_t seq = rep_lo_; seq < rep_hi_; ++seq) {
    RSlot& r = rslot(seq);
    r = std::move(old[seq & (old.size() - 1)]);
    if (!r.msg) continue;
    set_bit(rep_probe_, seq, r.state == RState::Probe);
    set_bit(rep_park_, seq, r.state == RState::Parked);
    if (r.waiting) link_waiter(seq);
  }
}

void NetworkInterface::detach_reply(std::uint64_t seq) {
  set_bit(rep_probe_, seq, false);
  set_bit(rep_park_, seq, false);
  if (rslot(seq).waiting) unlink_waiter(seq);
}

void NetworkInterface::file_reply(std::uint64_t seq, Probe p, Cycle hold) {
  RSlot& r = rslot(seq);
  switch (p) {
    case Probe::Held:
      r.state = RState::Held;
      r.hold = hold;
      rep_held_.emplace_back(hold, seq);
      std::push_heap(rep_held_.begin(), rep_held_.end(), std::greater<>{});
      break;
    case Probe::VcBlocked:
      r.state = RState::Parked;
      set_bit(rep_park_, seq, true);
      break;
    default:  // Busy: not memoizable, probe again next scan
      r.state = RState::Probe;
      set_bit(rep_probe_, seq, true);
      return;
  }
  // The probe consulted the reply's origin key exactly when it is eligible
  // for a circuit; the wait then lasts only while that key is unchanged.
  if (cfg_.circuit.uses_circuits() && reply_circuit_eligible(r.msg->type))
    link_waiter(seq);
}

std::uint64_t& NetworkInterface::wait_head(NodeId dest, Addr addr) {
  const std::uint64_t h = (addr ^ (static_cast<std::uint64_t>(dest) << 40)) *
                          0x9E3779B97F4A7C15ull;
  return wait_heads_[(h ^ (h >> 29)) & (wait_heads_.size() - 1)];
}

void NetworkInterface::link_waiter(std::uint64_t seq) {
  RSlot& r = rslot(seq);
  std::uint64_t& head = wait_head(r.msg->dest, r.msg->addr);
  r.prev = kNoSeq;
  r.next = head;
  if (head != kNoSeq) rslot(head).prev = seq;
  head = seq;
  r.waiting = true;
}

void NetworkInterface::unlink_waiter(std::uint64_t seq) {
  RSlot& r = rslot(seq);
  (r.prev != kNoSeq ? rslot(r.prev).next
                    : wait_head(r.msg->dest, r.msg->addr)) = r.next;
  if (r.next != kNoSeq) rslot(r.next).prev = r.prev;
  r.waiting = false;
}

void NetworkInterface::touch_origin(NodeId dest, Addr addr) {
  if (wait_heads_.empty()) return;
  for (std::uint64_t seq = wait_head(dest, addr); seq != kNoSeq;) {
    RSlot& r = rslot(seq);
    const std::uint64_t next = r.next;
    if (r.msg->dest == dest && r.msg->addr == addr) {
      detach_reply(seq);
      file_reply(seq, Probe::Busy, 0);
    }
    seq = next;
  }
}

void NetworkInterface::erase_origin(std::map<OriginKey, Origin>::iterator it) {
  const OriginKey key = it->first;
  origins_.erase(it);
  touch_origin(key.first, key.second);
}

NetworkInterface::Probe NetworkInterface::probe_reply(const MsgPtr& msg,
                                                      Cycle now, int* vc,
                                                      bool* on_circuit,
                                                      Cycle* hold) {
  *on_circuit = false;
  // Consult the circuit origin table.
  bool wants_circuit = false;
  if (cfg_.circuit.uses_circuits() && reply_circuit_eligible(msg->type)) {
    auto it = origins_.find({msg->dest, msg->addr});
    if (it != origins_.end()) {
      Origin& o = it->second;
      switch (o.status) {
        case OriginStatus::Built:
          if (o.undo_deferred()) {
            // Tear-down pending behind a rider: do not use the circuit.
            msg->outcome = CircuitOutcome::Undone;
            break;
          }
          if (now < o.depart_min) {
            *hold = o.depart_min;  // hold for the slot (§4.7)
            return Probe::Held;
          }
          if (now > o.depart_max) {
            // Missed the reserved window: tear the circuit down and fall
            // back to the packet-switched pipeline.
            msg->outcome = CircuitOutcome::Undone;
            undo_circuit(msg->dest, msg->addr, now, /*expect_reply=*/false);
            break;
          }
          wants_circuit = true;
          msg->circuit_partial = o.partial;
          break;
        case OriginStatus::Failed:
          msg->outcome = CircuitOutcome::Failed;
          erase_origin(it);
          break;
        case OriginStatus::Undone:
          msg->outcome = CircuitOutcome::Undone;
          erase_origin(it);
          break;
      }
    }
  }

  if (wants_circuit) {
    if (!pick_free_vc(VNet::Reply, /*circuit_class=*/true, vc))
      return Probe::Busy;
    *on_circuit = true;
    msg->on_circuit = true;
    msg->circuit_dest = msg->dest;
    msg->circuit_addr = msg->addr;
    return Probe::Ok;
  }

  // §4.5: a circuit-less reply may scrounge a complete, untimed circuit
  // that gets it strictly closer to its destination.
  if (cfg_.circuit.reuse && cfg_.circuit.mode == CircuitMode::Complete &&
      !cfg_.circuit.is_timed() && msg->dest != id_) {
    int best = topo_->hops(id_, msg->dest);
    const OriginKey* best_key = nullptr;
    for (const auto& [key, o] : origins_) {
      if (o.status != OriginStatus::Built || o.partial || o.undo_deferred())
        continue;
      int h = topo_->hops(key.first, msg->dest);
      if (h < best) {
        best = h;
        best_key = &key;
      }
    }
    if (best_key && pick_free_vc(VNet::Reply, true, vc)) {
      ++origins_.find(*best_key)->second.riders;
      touch_origin(best_key->first, best_key->second);
      msg->scrounging = true;
      msg->final_dest = msg->dest;
      msg->dest = best_key->first;
      msg->on_circuit = true;
      msg->circuit_dest = best_key->first;
      msg->circuit_addr = best_key->second;
      msg->outcome = CircuitOutcome::Scrounged;
      *on_circuit = true;
      ++stats_->at(Ctr::scrounge_rides);
      return Probe::Ok;
    }
  }

  // Blocked on a free non-circuit reply VC. The path to this point is free
  // of side effects when repeated, so the failure stands until such a VC
  // frees (or a scrounge becomes possible) or the origin key changes.
  if (!pick_free_vc(VNet::Reply, false, vc)) return Probe::VcBlocked;
  return Probe::Ok;
}

bool NetworkInterface::pick_free_vc(VNet vn, bool circuit_class,
                                    int* vc) const {
  const int n = cfg_.vcs_in_vn(vn);
  const int ncirc = vn == VNet::Reply ? cfg_.circuit.num_circuit_vcs() : 0;
  for (int v = 0; v < n; ++v) {
    bool is_circ = v < ncirc;
    if (is_circ != circuit_class) continue;
    if (circuit_class && cfg_.circuit.bufferless_circuit_vc()) {
      *vc = v;
      return true;  // bufferless: always available
    }
    if (outstanding_[out_idx(static_cast<int>(vn), v)] == 0) {
      *vc = v;
      return true;
    }
  }
  return false;
}

void NetworkInterface::inject_flit(Stream& s, Cycle now) {
  const MsgPtr& msg = s.msg;
  Flit f;
  f.msg = msg.get();
  f.seq = s.next_seq++;
  f.vnet = msg->is_reply() ? VNet::Reply : VNet::Request;
  f.vc = s.vc;
  f.on_circuit = s.on_circuit;
  if (f.is_head()) {
    pool_->pin(msg);  // flits carry raw pointers; the pool owns until tail eject
    msg->injected = now;
    if (obs_) obs_->on_message_injected(id_, *msg, now);
    stats_->at(msg->is_reply() ? Acc::q_lat_reply : Acc::q_lat_req)
        .add(static_cast<double>(now - msg->created));
    if (msg->is_reply()) {
      if (s.on_circuit && !msg->scrounging) {
        auto uit = origins_.find({msg->dest, msg->addr});
        if (uit != origins_.end()) erase_origin(uit);
        ++stats_->at(Ctr::circ_origin_used);
      }
      if (reply_injected_) reply_injected_(msg, s.on_circuit);
    }
  }
  RC_ASSERT(inject_ != nullptr, "NI not wired");
  inject_->push(f, now);
  ++stats_->at(Ctr::ni_inject_flit);
  if (f.is_tail()) {
    if (msg->scrounging) {
      auto it = origins_.find({msg->circuit_dest, msg->circuit_addr});
      if (it != origins_.end() && it->second.riders > 0) {
        Origin& o = it->second;
        touch_origin(msg->circuit_dest, msg->circuit_addr);
        if (--o.riders == 0 && o.undo_deferred()) {
          for (std::uint64_t owner : o.deferred_undo_owners)
            launch_undo(msg->circuit_dest, msg->circuit_addr, owner, now);
          o.deferred_undo_owners.clear();
          if (o.undo_expect_reply) {
            o.status = OriginStatus::Undone;
          } else {
            erase_origin(it);
          }
        }
      }
    }
    s.msg.reset();
  }
}

void NetworkInterface::handle_request_delivered(const MsgPtr& msg, Cycle now) {
  Origin o;
  o.status = msg->circuit_ok ? OriginStatus::Built : OriginStatus::Failed;
  o.partial = msg->circuit_partial;
  if (msg->circuit_ok && cfg_.circuit.is_timed()) {
    const Cycle tau = msg->injected + lat_.request_total(msg->path_hops) +
                      estimated_service_cycles(msg->type, cfg_) +
                      lat_.ni_turnaround();
    const int B = cfg_.circuit.slack_per_hop * msg->path_hops;
    switch (cfg_.circuit.timed) {
      case TimedMode::Exact:
        o.depart_min = o.depart_max = tau;
        break;
      case TimedMode::Slack:
      case TimedMode::SlackDelay:
        o.depart_min = tau + msg->used_delay;
        o.depart_max = tau + B;
        break;
      case TimedMode::Postponed:
        o.depart_min = o.depart_max = tau + B;
        break;
      case TimedMode::None:
        break;
    }
  }
  auto key = std::make_pair(msg->src, msg->addr);
  auto it = origins_.find(key);
  if (it != origins_.end() && it->second.status == OriginStatus::Built) {
    // A circuit for this (requestor, line) identity already exists (e.g. a
    // write-back and a re-fetch in flight together). The first reply will
    // consume the existing circuit; tear the duplicate instance down.
    if (!msg->circuit_ok) return;  // nothing was built for the new request
    if (it->second.riders > 0) {
      it->second.deferred_undo_owners.push_back(msg->id);
      touch_origin(key.first, key.second);
    } else {
      launch_undo(msg->src, msg->addr, msg->id, now);
    }
    ++stats_->at(Ctr::circ_origin_duplicate);
    return;
  }
  o.req_id = msg->id;
  origins_.insert_or_assign(key, std::move(o));
  touch_origin(key.first, key.second);
  if (msg->circuit_ok) {
    stats_->at(Acc::lat_circuit_setup)
        .add(static_cast<double>(now - msg->injected));
  }
}

void NetworkInterface::finish_delivery(const MsgPtr& msg, Cycle now) {
  msg->delivered = now;
  if (obs_) obs_->on_message_delivered(id_, *msg, now);
  if (msg->scrounging) {
    // Intermediate hop of a scrounger: re-inject toward the real target.
    msg->dest = msg->final_dest;
    msg->final_dest = kInvalidNode;
    msg->scrounging = false;
    msg->on_circuit = false;
    msg->circuit_dest = kInvalidNode;
    push_reply(msg);
    return;
  }
  classify_delivered(msg);
  if (msg->build_circuit && cfg_.circuit.uses_circuits())
    handle_request_delivered(msg, now);
  if (deliver_) deliver_(msg);
}

void NetworkInterface::classify_delivered(const MsgPtr& msg) {
  ++stats_->at(msg_stat(msg->type));
  const double net_lat = static_cast<double>(msg->delivered - msg->injected);
  const double q_lat = static_cast<double>(msg->injected - msg->created);
  if (!msg->is_reply()) {
    stats_->at(Acc::lat_net_req).add(net_lat);
    stats_->at(Acc::lat_q_req).add(q_lat);
    stats_->at(Hist::hist_req).add(net_lat);
    return;
  }
  const bool eligible = reply_circuit_eligible(msg->type);
  stats_->at(eligible ? Acc::lat_net_rep_circ : Acc::lat_net_rep_nocirc)
      .add(net_lat);
  stats_->at(eligible ? Acc::lat_q_rep_circ : Acc::lat_q_rep_nocirc).add(q_lat);
  stats_->at(eligible ? Hist::hist_rep_circ : Hist::hist_rep_nocirc)
      .add(net_lat);

  // Fig. 6 categories (classifier shared with the telemetry trace).
  const ReplyCategory cat = classify_reply_category(*msg, cfg_.circuit);
  if (reply_counted(cat)) ++stats_->at(reply_stat(cat));
}

void NetworkInterface::save(StateWriter& w) const {
  for (int vn = 0; vn < kNumVNets; ++vn) {
    if (vn == static_cast<int>(VNet::Request)) {
      w.u64(req_q_.size());
      for (const MsgPtr& m : req_q_) save_msg_ref(w, m);
    } else {
      w.u64(rep_count_);
      for (std::uint64_t seq = rep_lo_; seq < rep_hi_; ++seq)
        if (const MsgPtr& m = rep_[seq & (rep_.size() - 1)].msg)
          save_msg_ref(w, m);
    }
    const Stream& s = stream_[vn];
    save_msg_ref(w, s.msg);
    w.i64(s.next_seq);
    w.i64(s.vc);
    w.b(s.on_circuit);
  }
  w.i64(rr_vn_);
  for (int c : outstanding_) w.i64(c);
  w.u64(origins_.size());
  for (const auto& [key, o] : origins_) {
    w.i64(key.first);
    w.u64(key.second);
    w.u8(static_cast<std::uint8_t>(o.status));
    w.b(o.partial);
    w.u64(o.depart_min);
    w.u64(o.depart_max);
    w.i64(o.riders);
    w.u64(o.req_id);
    w.u64(o.deferred_undo_owners.size());
    for (std::uint64_t id : o.deferred_undo_owners) w.u64(id);
    w.b(o.undo_expect_reply);
  }
}

bool NetworkInterface::load(StateReader& r) {
  // Snapshots restore into a freshly constructed System.
  RC_ASSERT(pending() == 0 && origins_.empty(), "NI state loads into a fresh NI");
  for (int vn = 0; vn < kNumVNets; ++vn) {
    std::uint64_t n;
    if (!r.u64(&n)) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      MsgPtr m;
      if (!load_msg_ref(r, &m)) return false;
      if (!m) return r.fail("null message in NI injection queue");
      if (vn == static_cast<int>(VNet::Request))
        req_q_.push_back(std::move(m));
      else
        push_reply(std::move(m));  // every restored reply starts probe-due
    }
    Stream& s = stream_[vn];
    std::int64_t seq, vc;
    if (!(load_msg_ref(r, &s.msg) && r.i64(&seq) && r.i64(&vc) &&
          r.b(&s.on_circuit)))
      return false;
    s.next_seq = static_cast<int>(seq);
    s.vc = static_cast<int>(vc);
  }
  std::int64_t rr;
  if (!r.i64(&rr)) return false;
  rr_vn_ = static_cast<int>(rr);
  for (int& c : outstanding_) {
    std::int64_t v;
    if (!r.i64(&v)) return false;
    c = static_cast<int>(v);
  }
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int64_t node, riders;
    Addr addr;
    std::uint8_t status;
    if (!(r.i64(&node) && r.u64(&addr))) return false;
    Origin& o = origins_[{static_cast<NodeId>(node), addr}];
    std::uint64_t nd;
    if (!(r.u8(&status) && r.b(&o.partial) && r.u64(&o.depart_min) &&
          r.u64(&o.depart_max) && r.i64(&riders) && r.u64(&o.req_id) &&
          r.u64(&nd)))
      return false;
    if (status > static_cast<std::uint8_t>(OriginStatus::Undone))
      return r.fail("origin status out of range");
    o.status = static_cast<OriginStatus>(status);
    o.riders = static_cast<int>(riders);
    o.deferred_undo_owners.resize(nd);
    for (std::uint64_t& id : o.deferred_undo_owners)
      if (!r.u64(&id)) return false;
    if (!r.b(&o.undo_expect_reply)) return false;
  }
  return true;
}

}  // namespace rc
