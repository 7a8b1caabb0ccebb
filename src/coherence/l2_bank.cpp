#include "coherence/l2_bank.hpp"

#include <string>
#include <vector>

#include "common/state.hpp"
#include "noc/network.hpp"

namespace rc {

L2Bank::L2Bank(NodeId node, const CacheConfig& cfg, const CircuitConfig& circ,
               Network* net, const AddressMap* amap, StatSet* stats,
               Protocol protocol)
    : node_(node), cfg_(cfg), circ_(circ), proto_(protocol), net_(net),
      amap_(amap), stats_(stats),
      array_(cfg.l2_sets, cfg.l2_ways, net->topo().num_nodes()) {
  if (proto_ == Protocol::SparseMSI)
    dir_ = std::make_unique<Directory>(cfg, net->topo().num_nodes());
}

MsgPtr L2Bank::make(MsgType t, NodeId dest, Addr addr) const {
  auto m = std::make_shared<Message>();
  m->id = (2ull << 60) | (static_cast<std::uint64_t>(node_) << 40) |
          ++next_msg_id_;
  m->type = t;
  m->src = node_;
  m->dest = dest;
  m->addr = line_addr(addr);
  m->size_flits = flits_of(t);
  return m;
}

void L2Bank::send_later(MsgPtr msg, Cycle when) {
  outbox_.emplace(when, std::move(msg));
  wake(when);
}

bool L2Bank::try_undo_circuit(const MsgPtr& req, Cycle now, bool expect_reply) {
  if (!circ_.uses_circuits() || !req->build_circuit || req->src == node_)
    return false;
  return net_->ni(node_).undo_circuit(req->src, req->addr, now, expect_reply);
}

void L2Bank::handle(const MsgPtr& msg, Cycle now) {
  const Addr addr = msg->addr;
  switch (msg->type) {
    case MsgType::GetS:
    case MsgType::GetX: {
      auto it = txns_.find(addr);
      if (it != txns_.end()) {
        it->second.waiting.push_back(msg);
        ++stats_->at(Ctr::l2_req_blocked);
      } else {
        process_cpu_req(msg, now);
      }
      break;
    }
    case MsgType::WbData: {
      if (proto_ == Protocol::SparseMSI) {
        if (auto* d = dir_->find(addr)) {
          if (d->meta.owner == msg->src) d->meta.owner = kInvalidNode;
          d->meta.sharers.remove(msg->src);
          // Reclaim an emptied entry eagerly — but only when no transaction
          // is outstanding: completion handlers expect their entry present.
          if (dir_->empty(*d) && txns_.find(addr) == txns_.end())
            dir_->release(*d);
        }
        if (auto* line = array_.find(addr)) line->meta.dirty = true;
      } else if (auto* line = array_.find(addr)) {
        if (line->meta.owner == msg->src) line->meta.owner = kInvalidNode;
        line->meta.sharers.remove(msg->src);
        line->meta.dirty = true;
      }
      // Acknowledge regardless; a WB racing our own eviction-invalidate is
      // benign (the data is on its way to memory either way).
      send_later(make(MsgType::L2WbAck, msg->src, addr),
                 now + cfg_.l2_hit_latency);
      ++stats_->at(Ctr::l2_wb_received);
      break;
    }
    case MsgType::L1DataAck: {
      auto it = txns_.find(addr);
      RC_ASSERT(it != txns_.end() && it->second.st == TxnState::WaitDataAck,
                "stray L1DataAck");
      complete_txn(addr, now);
      break;
    }
    case MsgType::L1InvAck: {
      auto it = txns_.find(addr);
      RC_ASSERT(it != txns_.end(), "stray L1InvAck");
      Txn& t = it->second;
      RC_ASSERT(t.st == TxnState::WaitInvAcks || t.st == TxnState::EvictInv ||
                    t.st == TxnState::WaitPtrRoom || t.st == TxnState::DirEvict,
                "L1InvAck in wrong state");
      if (--t.acks_needed > 0) break;
      if (t.st == TxnState::WaitInvAcks) {
        if (proto_ == Protocol::SparseMSI) {
          auto* d = dir_->find(addr);
          RC_ASSERT(d != nullptr, "invalidating without a directory entry");
          if (t.pending->type == MsgType::GetS) {
            // Recalled owner (MSI: no clean-exclusive grants to undo, this
            // was a writer). With >= 2 pointers the downgrade variant kept
            // it as a sharer; the requestor joins in S.
            d->meta.sharers.add(t.pending->src);
            d->meta.owner = kInvalidNode;
            t.st = TxnState::WaitDataAck;
            send_data_reply(t.pending, /*exclusive=*/false, now);
          } else {
            d->meta.sharers.clear();
            d->meta.owner = t.pending->src;
            t.st = TxnState::WaitDataAck;
            send_data_reply(t.pending, /*exclusive=*/true, now);
          }
        } else if (t.pending->type == MsgType::GetS) {
          auto* line = array_.find(addr);
          RC_ASSERT(line != nullptr, "invalidating a missing line");
          // L2-intermediary recall for a read: the old owner kept an S
          // copy; the requestor joins it as a sharer.
          line->meta.sharers.add(t.pending->src);
          line->meta.owner = kInvalidNode;
          t.st = TxnState::WaitDataAck;
          send_data_reply(t.pending, /*exclusive=*/false, now);
        } else {
          auto* line = array_.find(addr);
          RC_ASSERT(line != nullptr, "invalidating a missing line");
          // All sharers gone: grant the writer exclusive data.
          line->meta.sharers.clear();
          line->meta.owner = t.pending->src;
          t.st = TxnState::WaitDataAck;
          send_data_reply(t.pending, /*exclusive=*/true, now);
        }
      } else if (t.st == TxnState::WaitPtrRoom) {
        // The recalled sharer's pointer is free again (it was dropped from
        // the sharer set at send time): re-dispatch the stalled request.
        MsgPtr req = t.pending;
        auto waiting = std::move(t.waiting);
        txns_.erase(it);
        process_cpu_req(req, now);
        for (auto& w : waiting) handle(w, now);
      } else if (t.st == TxnState::DirEvict) {
        // Directory-entry eviction storm done: every tracked copy of the
        // victim tag acked. The L2 data line stays; only the entry frees.
        Addr parent = t.parent;
        auto* d = dir_->find(addr);
        RC_ASSERT(d != nullptr, "dir-evicting a missing entry");
        if (d->meta.owner != kInvalidNode)
          if (auto* line = array_.find(addr)) line->meta.dirty = true;
        dir_->release(*d);
        ++stats_->at(Ctr::l2_dir_evictions);
        auto waiting = std::move(t.waiting);
        txns_.erase(it);
        auto pit = txns_.find(parent);
        RC_ASSERT(pit != txns_.end() && pit->second.st == TxnState::WaitEvict,
                  "orphan directory-victim transaction");
        MsgPtr req = pit->second.pending;
        auto pwaiting = std::move(pit->second.waiting);
        txns_.erase(pit);
        process_cpu_req(req, now);
        for (auto& w : pwaiting) handle(w, now);
        for (auto& w : waiting) handle(w, now);
      } else {
        // Victim clean-up finished: resume the miss that needed the frame.
        Addr parent = t.parent;
        auto* line = array_.find(addr);
        RC_ASSERT(line != nullptr, "evicting a missing line");
        if (line->meta.dirty)
          send_later(make(MsgType::MemWb, amap_->mem_ctrl(addr), addr), now);
        array_.invalidate(*line);
        ++stats_->at(Ctr::l2_evictions);
        if (proto_ == Protocol::SparseMSI)
          if (auto* d = dir_->find(addr)) dir_->release(*d);
        auto waiting = std::move(t.waiting);
        txns_.erase(it);
        auto pit = txns_.find(parent);
        RC_ASSERT(pit != txns_.end() && pit->second.st == TxnState::WaitEvict,
                  "orphan victim transaction");
        MsgPtr req = pit->second.pending;
        proceed_miss(parent, req, now);
        for (auto& w : waiting) handle(w, now);
      }
      break;
    }
    case MsgType::MemData: {
      auto* line = array_.find(addr);
      RC_ASSERT(line != nullptr && line->meta.fetching, "MemData for non-fetching line");
      line->meta.fetching = false;
      line->meta.dirty = false;
      auto it = txns_.find(addr);
      RC_ASSERT(it != txns_.end() && it->second.st == TxnState::WaitMem,
                "MemData without transaction");
      MsgPtr req = it->second.pending;
      auto waiting = std::move(it->second.waiting);
      txns_.erase(it);
      process_cpu_req(req, now);
      for (auto& w : waiting) handle(w, now);
      break;
    }
    case MsgType::MemAck:
      ++stats_->at(Ctr::l2_wb_to_mem_acked);
      break;
    default:
      fatal(std::string("L2 received unexpected message ") +
            to_string(msg->type));
  }
}

void L2Bank::process_cpu_req(const MsgPtr& msg, Cycle now) {
  if (proto_ == Protocol::SparseMSI) {
    process_cpu_req_sparse(msg, now);
    return;
  }
  RC_ASSERT(txns_.find(msg->addr) == txns_.end(), "line already blocked");
  auto* line = array_.find(msg->addr);
  if (!line || line->meta.fetching) {
    start_miss(msg, now);
    return;
  }
  ++stats_->at(Ctr::l2_hits);
  array_.touch(*line, now);
  const NodeId req = msg->src;
  LineMeta& m = line->meta;
  if (m.owner == req) m.owner = kInvalidNode;  // stale dir: WB in flight

  if (msg->type == MsgType::GetS) {
    if (m.owner != kInvalidNode && !cfg_.direct_l1_transfers) {
      // Simpler protocol variant (§3): recall (downgrade) the owner's copy
      // and supply the data from the home bank — the requestor's circuit
      // stays built, and the owner keeps the line in S.
      auto rec = make(MsgType::Inv, m.owner, msg->addr);
      rec->downgrade = true;
      send_later(std::move(rec), now + cfg_.l2_hit_latency);
      m.sharers.assign_only(m.owner);
      m.owner = kInvalidNode;
      m.dirty = true;
      txns_[msg->addr] = Txn{TxnState::WaitInvAcks, msg, 1, 0, {}};
      ++stats_->at(Ctr::l2_recalls);
    } else if (m.owner != kInvalidNode) {
      // §4.4 case 1: the owner supplies the data directly; the circuit that
      // the request built toward us will never be used — undo it.
      bool undone = try_undo_circuit(msg, now, /*expect_reply=*/false);
      auto fwd = make(MsgType::FwdGetS, m.owner, msg->addr);
      fwd->fwd_requestor = req;
      fwd->undone_marker = undone;
      send_later(std::move(fwd), now + cfg_.l2_hit_latency);
      m.sharers.add(m.owner);
      m.sharers.add(req);
      m.owner = kInvalidNode;
      txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
      ++stats_->at(Ctr::l2_fwd_gets);
    } else {
      bool exclusive = m.sharers.none();
      m.sharers.add(req);
      if (exclusive) {
        m.sharers.clear();
        m.owner = req;  // MESI E grant is tracked as an owner
      }
      txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
      send_data_reply(msg, exclusive, now);
    }
    return;
  }

  // GetX
  if (m.owner != kInvalidNode && !cfg_.direct_l1_transfers) {
    int ninv = send_invalidations(*line, req, now);
    m.owner = kInvalidNode;
    m.sharers.clear();
    m.dirty = true;
    txns_[msg->addr] = Txn{TxnState::WaitInvAcks, msg, ninv, 0, {}};
    ++stats_->at(Ctr::l2_recalls);
    return;
  }
  if (m.owner != kInvalidNode) {
    bool undone = try_undo_circuit(msg, now, /*expect_reply=*/false);
    auto fwd = make(MsgType::FwdGetX, m.owner, msg->addr);
    fwd->fwd_requestor = req;
    fwd->undone_marker = undone;
    send_later(std::move(fwd), now + cfg_.l2_hit_latency);
    m.owner = req;
    m.sharers.clear();
    m.dirty = true;
    txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
    ++stats_->at(Ctr::l2_fwd_getx);
    return;
  }
  if (m.sharers.any_besides(req)) {
    int n = send_invalidations(*line, req, now);
    m.dirty = true;
    txns_[msg->addr] = Txn{TxnState::WaitInvAcks, msg, n, 0, {}};
    ++stats_->at(Ctr::l2_invalidation_rounds);
  } else {
    m.sharers.clear();
    m.owner = req;
    m.dirty = true;
    txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
    send_data_reply(msg, /*exclusive=*/true, now);
  }
}

void L2Bank::process_cpu_req_sparse(const MsgPtr& msg, Cycle now) {
  RC_ASSERT(txns_.find(msg->addr) == txns_.end(), "line already blocked");
  auto* line = array_.find(msg->addr);
  if (!line || line->meta.fetching) {
    start_miss(msg, now);
    return;
  }
  ++stats_->at(Ctr::l2_hits);
  array_.touch(*line, now);
  const NodeId req = msg->src;

  auto* d = dir_->find(msg->addr);
  if (!d) {
    d = dir_ensure(msg, now);
    if (!d) return;  // stalled behind a directory eviction or a full set
  }
  dir_->touch(*d, now);
  Directory::Entry& m = d->meta;
  if (m.owner == req) m.owner = kInvalidNode;  // stale dir: WB in flight

  if (msg->type == MsgType::GetS) {
    if (m.owner != kInvalidNode) {
      // An L1 holds the line in M. With a single pointer the old holder
      // cannot stay tracked beside the requestor, so it is recalled with a
      // plain invalidation; otherwise the full-map recall/forward shapes
      // apply, ending with {old owner, requestor} both in S (two pointers).
      if (dir_->pointer_limit() < 2) {
        send_later(make(MsgType::Inv, m.owner, msg->addr),
                   now + cfg_.l2_hit_latency);
        ++stats_->at(Ctr::l2_invs_sent);
        m.sharers.clear();
        m.owner = kInvalidNode;
        line->meta.dirty = true;
        txns_[msg->addr] = Txn{TxnState::WaitInvAcks, msg, 1, 0, {}};
        ++stats_->at(Ctr::l2_recalls);
      } else if (!cfg_.direct_l1_transfers) {
        auto rec = make(MsgType::Inv, m.owner, msg->addr);
        rec->downgrade = true;
        send_later(std::move(rec), now + cfg_.l2_hit_latency);
        ++stats_->at(Ctr::l2_invs_sent);
        m.sharers.assign_only(m.owner);
        m.owner = kInvalidNode;
        line->meta.dirty = true;
        txns_[msg->addr] = Txn{TxnState::WaitInvAcks, msg, 1, 0, {}};
        ++stats_->at(Ctr::l2_recalls);
      } else {
        // §4.4 case 1: owner-to-owner forward; the requestor's circuit
        // toward us will never be used — undo it.
        bool undone = try_undo_circuit(msg, now, /*expect_reply=*/false);
        auto fwd = make(MsgType::FwdGetS, m.owner, msg->addr);
        fwd->fwd_requestor = req;
        fwd->undone_marker = undone;
        send_later(std::move(fwd), now + cfg_.l2_hit_latency);
        m.sharers.assign_only(m.owner);
        m.sharers.add(req);
        m.owner = kInvalidNode;
        txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
        ++stats_->at(Ctr::l2_fwd_gets);
      }
      return;
    }
    if (dir_->needs_pointer_recall(*d, req)) {
      // Pointer overflow: recall the lowest-numbered sharer so the
      // requestor can take its pointer. Dropped from the set at send time;
      // the ack re-dispatches the request (WaitPtrRoom).
      NodeId victim = m.sharers.lowest_besides(req);
      RC_ASSERT(victim != kInvalidNode, "pointer recall with no sharers");
      m.sharers.remove(victim);
      send_later(make(MsgType::Inv, victim, msg->addr),
                 now + cfg_.l2_hit_latency);
      ++stats_->at(Ctr::l2_invs_sent);
      txns_[msg->addr] = Txn{TxnState::WaitPtrRoom, msg, 1, 0, {}};
      ++stats_->at(Ctr::l2_ptr_recalls);
      return;
    }
    m.sharers.add(req);
    txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
    send_data_reply(msg, /*exclusive=*/false, now);  // MSI: no E grant
    return;
  }

  // GetX
  if (m.owner != kInvalidNode) {
    if (cfg_.direct_l1_transfers) {
      bool undone = try_undo_circuit(msg, now, /*expect_reply=*/false);
      auto fwd = make(MsgType::FwdGetX, m.owner, msg->addr);
      fwd->fwd_requestor = req;
      fwd->undone_marker = undone;
      send_later(std::move(fwd), now + cfg_.l2_hit_latency);
      m.owner = req;
      m.sharers.clear();
      line->meta.dirty = true;
      txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
      ++stats_->at(Ctr::l2_fwd_getx);
    } else {
      send_later(make(MsgType::Inv, m.owner, msg->addr),
                 now + cfg_.l2_hit_latency);
      ++stats_->at(Ctr::l2_invs_sent);
      m.owner = kInvalidNode;
      m.sharers.clear();
      line->meta.dirty = true;
      txns_[msg->addr] = Txn{TxnState::WaitInvAcks, msg, 1, 0, {}};
      ++stats_->at(Ctr::l2_recalls);
    }
    return;
  }
  if (m.sharers.any_besides(req)) {
    int n = send_dir_invalidations(*d, req, now);
    line->meta.dirty = true;
    txns_[msg->addr] = Txn{TxnState::WaitInvAcks, msg, n, 0, {}};
    ++stats_->at(Ctr::l2_invalidation_rounds);
  } else {
    m.sharers.clear();
    m.owner = req;
    line->meta.dirty = true;
    txns_[msg->addr] = Txn{TxnState::WaitDataAck, msg, 0, 0, {}};
    send_data_reply(msg, /*exclusive=*/true, now);
  }
}

Directory::Line* L2Bank::dir_ensure(const MsgPtr& msg, Cycle now) {
  if (auto* d = dir_->find_or_install(msg->addr, now)) return d;
  auto* victim = dir_->victim(msg->addr, [&](Addr tag) {
    return txns_.find(tag) == txns_.end();
  });
  if (!victim) {
    retry_.push_back(msg);  // every entry's tag blocked: retry next cycle
    wake(now);
    ++stats_->at(Ctr::l2_dir_stall);
    return nullptr;
  }
  if (dir_->empty(*victim)) {
    // Stale empty entry (emptied while its tag had a transaction): reclaim
    // silently, no recalls needed.
    dir_->release(*victim);
    ++stats_->at(Ctr::l2_dir_evictions);
    auto* d = dir_->find_or_install(msg->addr, now);
    RC_ASSERT(d != nullptr, "released entry not reusable");
    return d;
  }
  // Broadcast recall storm: every tracked copy of the victim tag must be
  // invalidated (and acked) before the entry can be reused.
  int n = send_dir_invalidations(*victim, kInvalidNode, now);
  txns_[dir_->tag_of(*victim)] =
      Txn{TxnState::DirEvict, nullptr, n, msg->addr, {}};
  txns_[msg->addr] = Txn{TxnState::WaitEvict, msg, 0, 0, {}};
  ++stats_->at(Ctr::l2_dir_evict_recalls);
  return nullptr;
}

int L2Bank::send_dir_invalidations(const Directory::Line& entry, NodeId except,
                                   Cycle now) {
  const Addr tag = dir_->tag_of(entry);
  int n = 0;
  entry.meta.sharers.for_each([&](NodeId s) {
    if (s == except) return;
    send_later(make(MsgType::Inv, s, tag), now + cfg_.l2_hit_latency);
    ++n;
  });
  if (entry.meta.owner != kInvalidNode && entry.meta.owner != except) {
    send_later(make(MsgType::Inv, entry.meta.owner, tag),
               now + cfg_.l2_hit_latency);
    ++n;
  }
  stats_->at(Ctr::l2_invs_sent) += static_cast<std::uint64_t>(n);
  return n;
}

int L2Bank::send_invalidations(const Line& line, NodeId except, Cycle now) {
  const Addr tag = array_.tag_of(line);
  int n = 0;
  line.meta.sharers.for_each([&](NodeId s) {
    if (s == except) return;
    send_later(make(MsgType::Inv, s, tag), now + cfg_.l2_hit_latency);
    ++n;
  });
  if (line.meta.owner != kInvalidNode && line.meta.owner != except) {
    send_later(make(MsgType::Inv, line.meta.owner, tag),
               now + cfg_.l2_hit_latency);
    ++n;
  }
  stats_->at(Ctr::l2_invs_sent) += static_cast<std::uint64_t>(n);
  return n;
}

void L2Bank::send_data_reply(const MsgPtr& req, bool exclusive, Cycle now) {
  auto rep = make(MsgType::L2Reply, req->src, req->addr);
  rep->exclusive = exclusive;
  send_later(std::move(rep), now + cfg_.l2_hit_latency);
}

void L2Bank::start_miss(const MsgPtr& msg, Cycle now) {
  ++stats_->at(Ctr::l2_misses);
  if (circ_.undo_on_l2_miss)
    try_undo_circuit(msg, now, /*expect_reply=*/true);
  auto* line = array_.find(msg->addr);
  if (line && line->meta.fetching) {
    // Shouldn't happen: fetching lines are blocked by their transaction.
    fatal("request reached a fetching line without transaction gating");
  }
  if (array_.free_way(msg->addr)) {
    proceed_miss(msg->addr, msg, now);
    return;
  }
  auto* victim = array_.victim(msg->addr, [&](Addr tag, const Line& l) {
    return !l.meta.fetching && txns_.find(tag) == txns_.end();
  });
  if (!victim) {
    retry_.push_back(msg);  // every way busy: retry next cycle
    wake(now);
    ++stats_->at(Ctr::l2_victim_stall);
    return;
  }
  const Addr vtag = array_.tag_of(*victim);
  if (proto_ == Protocol::SparseMSI) {
    // L1 copies live wherever the sparse directory says they do. A line
    // with no entry (or an emptied one) evicts silently; otherwise the
    // inclusive recall goes to the entry's tracked population.
    if (auto* d = dir_->find(vtag)) {
      if (!dir_->empty(*d)) {
        int n = send_dir_invalidations(*d, kInvalidNode, now);
        txns_[vtag] = Txn{TxnState::EvictInv, nullptr, n, msg->addr, {}};
        txns_[msg->addr] = Txn{TxnState::WaitEvict, msg, 0, 0, {}};
        return;
      }
      dir_->release(*d);
    }
  } else if (victim->meta.owner != kInvalidNode || victim->meta.sharers.any()) {
    // Inclusive L2: recall/invalidate the L1 copies first (write-or-
    // replacement invalidation of Table 3).
    int n = send_invalidations(*victim, kInvalidNode, now);
    txns_[vtag] = Txn{TxnState::EvictInv, nullptr, n, msg->addr, {}};
    txns_[msg->addr] = Txn{TxnState::WaitEvict, msg, 0, 0, {}};
    return;
  }
  if (victim->meta.dirty)
    send_later(make(MsgType::MemWb, amap_->mem_ctrl(vtag), vtag),
               now + cfg_.l2_hit_latency);
  array_.invalidate(*victim);
  ++stats_->at(Ctr::l2_evictions);
  proceed_miss(msg->addr, msg, now);
}

void L2Bank::proceed_miss(Addr addr, const MsgPtr& msg, Cycle now) {
  auto it = txns_.find(addr);
  std::deque<MsgPtr> waiting;
  if (it != txns_.end()) {
    waiting = std::move(it->second.waiting);
    txns_.erase(it);
  }
  auto* line = array_.install(array_.free_way(addr), addr, now);
  line->meta.fetching = true;
  Txn t;
  t.st = TxnState::WaitMem;
  t.pending = msg;
  t.waiting = std::move(waiting);
  txns_[addr] = std::move(t);
  send_later(make(MsgType::MemRead, amap_->mem_ctrl(addr), addr),
             now + cfg_.l2_hit_latency);
}

void L2Bank::complete_txn(Addr addr, Cycle now) {
  auto it = txns_.find(addr);
  RC_ASSERT(it != txns_.end(), "completing a missing transaction");
  auto waiting = std::move(it->second.waiting);
  txns_.erase(it);
  for (auto& w : waiting) handle(w, now);
}

void L2Bank::on_reply_injected(const MsgPtr& msg, bool on_circuit, Cycle now) {
  if (!circ_.no_ack || msg->type != MsgType::L2Reply || !on_circuit) return;
  auto it = txns_.find(msg->addr);
  if (it == txns_.end() || it->second.st != TxnState::WaitDataAck) return;
  // §4.6: data on a complete circuit cannot be overtaken — acknowledge now.
  msg->ack_elided = true;
  ++stats_->at(Ctr::replies_eliminated);
  complete_txn(msg->addr, now);
}

void L2Bank::tick(Cycle now) {
  if (!retry_.empty()) {
    auto pending = std::move(retry_);
    retry_.clear();
    for (auto& m : pending) handle(m, now);
  }
  while (!outbox_.empty() && outbox_.begin()->first <= now) {
    net_->send(outbox_.begin()->second, now);
    outbox_.erase(outbox_.begin());
  }
}

NodeId L2Bank::owner_of(Addr addr) {
  if (proto_ == Protocol::SparseMSI) {
    auto* d = dir_->find(addr);
    return d ? d->meta.owner : kInvalidNode;
  }
  auto* line = array_.find(addr);
  return line ? line->meta.owner : kInvalidNode;
}

bool L2Bank::prewarm_line(Addr addr, NodeId owner) {
  const auto p = array_.probe(addr);
  if (proto_ == Protocol::SparseMSI) {
    if (!p.line) return false;
    if (!p.hit) array_.install(p.line, addr, 0);
    if (owner == kInvalidNode) return true;
    auto* d = dir_->find_or_install(addr, 0);
    if (!d) return false;  // directory set full: the L1 copy stays untracked
    d->meta.owner = owner;
    return true;
  }
  if (p.hit) return true;
  if (!p.line) return false;
  array_.install(p.line, addr, 0)->meta.owner = owner;
  return true;
}

void L2Bank::save(StateWriter& w) const {
  // The line array dominates snapshot size (a 16x16 mesh has 4M+ L2 lines,
  // most of them invalid), so it is stored sparsely: only valid lines, as
  // delta-encoded array indices with varint-packed fields. Invalid lines
  // carry no simulation-visible state (replacement compares last_used among
  // valid lines only; install() resets meta), so resetting them to the
  // default Line on load is exact, and save -> load -> save stays a fixed
  // point.
  w.u64(array_.size());
  std::uint64_t nvalid = 0;
  for (std::size_t i = 0; i < array_.size(); ++i)
    if (array_.valid(i)) ++nvalid;
  w.vu64(nvalid);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < array_.size(); ++i) {
    if (!array_.valid(i)) continue;
    const Line& l = array_.line(i);
    w.vu64(i - prev);  // gap from the previous valid index (first: from 0)
    prev = i;
    w.vu64(array_.tag(i) / kLineBytes);
    w.vu64(array_.stamp(i));
    w.u8(static_cast<std::uint8_t>((l.meta.dirty ? 1 : 0) |
                                   (l.meta.fetching ? 2 : 0)));
    // owner is kInvalidNode (-1) for most lines; +1 keeps the varint short.
    w.vu64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(l.meta.owner) + 1));
    const auto words = l.meta.sharers.words();
    w.vu64(words.size());
    for (std::uint64_t x : words) w.vu64(x);
  }
  w.b(dir_ != nullptr);
  if (dir_) dir_->save(w);
  w.u64(next_msg_id_);
  w.u64(txns_.size());
  for (const auto& [addr, t] : txns_) {
    w.u64(addr);
    w.u8(static_cast<std::uint8_t>(t.st));
    save_msg_ref(w, t.pending);
    w.i64(t.acks_needed);
    w.u64(t.parent);
    w.u64(t.waiting.size());
    for (const MsgPtr& m : t.waiting) save_msg_ref(w, m);
  }
  w.u64(retry_.size());
  for (const MsgPtr& m : retry_) save_msg_ref(w, m);
  w.u64(outbox_.size());
  for (const auto& [cyc, m] : outbox_) {
    w.u64(cyc);
    save_msg_ref(w, m);
  }
}

bool L2Bank::load(StateReader& r) {
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  if (n != array_.size())
    return r.fail("L2 has " + std::to_string(array_.size()) +
                  " lines, snapshot has " + std::to_string(n));
  array_.clear();
  std::uint64_t nvalid;
  if (!r.vu64(&nvalid)) return false;
  if (nvalid > array_.size())
    return r.fail("snapshot claims " + std::to_string(nvalid) +
                  " valid lines in an L2 bank of " +
                  std::to_string(array_.size()));
  const int nodes = net_->topo().num_nodes();
  std::vector<Cycle> stamps(array_.size());
  std::uint64_t idx = 0;
  for (std::uint64_t i = 0; i < nvalid; ++i) {
    std::uint64_t gap, tagline, last_used, owner1, nw;
    std::uint8_t flags;
    if (!(r.vu64(&gap) && r.vu64(&tagline) && r.vu64(&last_used) &&
          r.u8(&flags) && r.vu64(&owner1) && r.vu64(&nw)))
      return false;
    if (i > 0 && gap == 0) return r.fail("duplicate L2 line index");
    idx += gap;
    if (idx >= array_.size()) return r.fail("L2 line index out of range");
    if (flags > 3) return r.fail("L2 line flags out of range");
    if (const char* why = array_.restore(idx, true, tagline * kLineBytes))
      return r.fail("L2 bank " + std::to_string(node_) + ", line " +
                    std::to_string(idx) + ": " + why);
    if (owner1 > static_cast<std::uint64_t>(nodes))
      return r.fail("L2 bank " + std::to_string(node_) + ", line " +
                    std::to_string(idx) + ": owner " +
                    std::to_string(owner1 - 1) + " out of range for " +
                    std::to_string(nodes) + " nodes");
    Line& l = array_.line(idx);
    stamps[idx] = last_used;
    l.meta.dirty = (flags & 1) != 0;
    l.meta.fetching = (flags & 2) != 0;
    l.meta.owner =
        static_cast<std::int16_t>(static_cast<std::int64_t>(owner1) - 1);
    if (nw > (static_cast<std::uint64_t>(nodes) + 63) / 64)
      return r.fail("L2 bank " + std::to_string(node_) + ", line " +
                    std::to_string(idx) + ": " + std::to_string(nw) +
                    " sharer words for " + std::to_string(nodes) + " nodes");
    std::vector<std::uint64_t> words(nw);
    for (std::uint64_t& x : words)
      if (!r.vu64(&x)) return false;
    l.meta.sharers.set_words(words);
  }
  array_.restore_stamps(stamps);
  bool has_dir;
  if (!r.b(&has_dir)) return false;
  if (has_dir != (dir_ != nullptr))
    return r.fail("snapshot and configuration disagree on a sparse directory");
  if (dir_ && !dir_->load(r)) return false;
  if (!(r.u64(&next_msg_id_) && r.u64(&n))) return false;
  txns_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    Addr addr;
    std::uint8_t st;
    std::int64_t acks;
    std::uint64_t nwait;
    if (!r.u64(&addr)) return false;
    Txn& t = txns_[addr];
    if (!(r.u8(&st) && load_msg_ref(r, &t.pending) && r.i64(&acks) &&
          r.u64(&t.parent) && r.u64(&nwait)))
      return false;
    if (st > static_cast<std::uint8_t>(TxnState::DirEvict))
      return r.fail("L2 transaction state out of range");
    t.st = static_cast<TxnState>(st);
    t.acks_needed = static_cast<int>(acks);
    for (std::uint64_t j = 0; j < nwait; ++j) {
      MsgPtr m;
      if (!load_msg_ref(r, &m)) return false;
      t.waiting.push_back(std::move(m));
    }
  }
  if (!r.u64(&n)) return false;
  retry_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    MsgPtr m;
    if (!load_msg_ref(r, &m)) return false;
    retry_.push_back(std::move(m));
  }
  if (!r.u64(&n)) return false;
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
