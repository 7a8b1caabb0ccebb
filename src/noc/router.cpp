#include "noc/router.hpp"

#include <algorithm>

#include "common/state.hpp"
#include "noc/observer.hpp"
#include "noc/topology.hpp"

namespace rc {

int reply_flits_for_request(MsgType req) {
  switch (req) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::MemRead:
      return kDataFlits;  // L2Reply / MemData carry a cache line
    default:
      return kControlFlits;  // L2WbAck / MemAck
  }
}

int estimated_service_cycles(MsgType req, const NocConfig& noc) {
  switch (req) {
    case MsgType::MemRead:
    case MsgType::MemWb:
      return noc.est_service_mem;
    default:
      return noc.est_service_cache;
  }
}

Router::Router(NodeId id, const NocConfig& cfg, const Topology* topo,
               StatSet* stats)
    : id_(id), cfg_(cfg), topo_(topo), stats_(stats), lat_(cfg_),
      circuits_(cfg.circuit, stats) {
  RC_ASSERT(topo_ != nullptr, "router needs a topology");
  // The datapath counters are reported even while zero.
  for (Ctr c : {Ctr::buf_write, Ctr::buf_read, Ctr::xbar, Ctr::link_flit,
                Ctr::va_ops, Ctr::sa_ops, Ctr::circ_check, Ctr::circ_fwd})
    stats_->at(c);
  const int nvcs = total_vcs();
  RC_ASSERT(kNumDirs * nvcs <= 64, "VA request masks hold 64 bits");
  vc_stage_ready_.assign(static_cast<std::size_t>(kNumDirs * nvcs), 0);
  vc_out_port_.assign(static_cast<std::size_t>(kNumDirs * nvcs), 0);
  vc_out_vc_.assign(static_cast<std::size_t>(kNumDirs * nvcs), 0);
  vc_out_vci_.assign(static_cast<std::size_t>(kNumDirs * nvcs), 0);
  credits_.assign(static_cast<std::size_t>(kNumDirs * nvcs), 0);
  for (auto& ip : inputs_) {
    ip.vcs.assign(nvcs, InputVC{});
    ip.sa_input_arb.resize(nvcs);
  }
  for (auto& op : outputs_) {
    op.vcs.assign(nvcs, OutputVC{});
    op.sa_output_arb.resize(kNumDirs);
    op.va_arb.assign(nvcs, RoundRobinArbiter(kNumDirs * nvcs));
  }
  // Flat-VC-index lookup tables and the static set of VA-allocatable output
  // VCs: buffered and not dedicated to circuits (complete mode's circuit VC
  // is bufferless; fragmented claims its circuit VCs at reservation time).
  for (int v = 0; v < nvcs; ++v) {
    const VNet vn = v < cfg_.vcs_request_vn ? VNet::Request : VNet::Reply;
    const int within = vn == VNet::Request ? v : v - cfg_.vcs_request_vn;
    vcidx_vnet_[v] = vn;
    vcidx_within_[v] = within;
    if (vc_has_buffer(vn, within) &&
        !(vn == VNet::Reply && is_circuit_vc(vn, within)))
      va_allocatable_mask_ |= std::uint64_t{1} << v;
  }
}

int Router::num_circuit_vcs() const { return cfg_.circuit.num_circuit_vcs(); }

void Router::set_observer(NocObserver* obs) {
  obs_ = obs;
  circuits_.set_observer(obs, id_);
}

void Router::wire(Dir d, const PortWiring& w) {
  Port p = port_of(d);
  wires_[p] = w;
  wires_[p].connected = true;
  // Register as the consumer-side waker of the inbound pipes, with the
  // per-port pending bit so the tick loops only probe ports that can hold
  // items (see the hot-state masks in router.hpp).
  if (w.in_data) w.in_data->set_waker(this, &in_pending_, p);
  if (w.out_credits) w.out_credits->set_waker(this, &cr_pending_, p);
  // Downstream buffering determines our output credits. The Local port's
  // sink is the NI, which consumes ejected flits immediately (an infinite
  // sink), so it gets an effectively unlimited window. Bufferless circuit
  // VCs carry no credits at all.
  const int window = d == Dir::Local ? (1 << 28) : cfg_.buffer_depth_flits;
  for (int vn = 0; vn < kNumVNets; ++vn) {
    VNet v = static_cast<VNet>(vn);
    for (int vc = 0; vc < cfg_.vcs_in_vn(v); ++vc) {
      credits_[flat_vc(p, vc_index(v, vc))] =
          vc_has_buffer(v, vc) ? window : 0;
    }
  }
}

Cycle Router::next_work(Cycle now) const {
  if (!undo_latch_.empty() || busy()) return now;
  // Only ports whose pending bit is set can hold items; a clear bit means
  // the ring is empty (next_ready would be kNeverCycle).
  Cycle w = kNeverCycle;
  for (std::uint32_t m = in_pending_; m; m &= m - 1)
    w = std::min(w, wires_[std::countr_zero(m)].in_data->next_ready());
  for (std::uint32_t m = cr_pending_; m; m &= m - 1)
    w = std::min(w, wires_[std::countr_zero(m)].out_credits->next_ready());
  return w;
}

void Router::tick(Cycle now) {
  circ_taken_ = 0;
  if (!undo_latch_.empty()) {
    for (const auto& [np, rec] : undo_latch_) {
      if (!wires_[np].in_credits) continue;
      Credit cr;
      cr.vnet = VNet::Reply;
      cr.vc = -1;
      cr.undo = rec;
      wires_[np].in_credits->push(cr, now);
    }
    undo_latch_.clear();
  }
  if (cr_pending_) process_credits(now);
  if (in_pending_ | retry_pending_) process_arrivals(now);
  if (st_busy_) stage_st(now);
  stage_sa(now);
  stage_va(now);
}

void Router::process_credits(Cycle now) {
  for (std::uint32_t m = cr_pending_; m; m &= m - 1) {
    const int p = std::countr_zero(m);
    Pipe<Credit>* pipe = wires_[p].out_credits;
    while (auto c = pipe->pop_ready(now)) {
      if (c->undo) handle_undo(static_cast<Port>(p), *c->undo, now);
      if (c->vc >= 0) ++credits_[flat_vc(p, vc_index(c->vnet, c->vc))];
    }
    // ring_empty (not empty): a cross-shard producer may be appending to
    // the mailbox concurrently; the flush re-sets our bit.
    if (pipe->ring_empty()) cr_pending_ &= ~(std::uint32_t{1} << p);
  }
}

void Router::handle_undo(Port p, const UndoRecord& rec, Cycle now) {
  auto e = circuits_.undo(p, rec, now);
  if (e && cfg_.circuit.mode == CircuitMode::Fragmented) {
    // Release the output circuit VC the reservation had claimed.
    outputs_[e->out_port].clear_busy(vc_index(VNet::Reply, e->vc));
  }
  // Forward toward the circuit destination along the reply (YX) path; the
  // undo travels on the credit wires of the link the reply would have used,
  // held one cycle in a latch (see undo_latch_).
  Dir next = topo_->route(id_, rec.circuit_dest, /*reverse=*/true);
  if (next == Dir::Local) return;  // reached the requestor's router
  undo_latch_.emplace_back(port_of(next), rec);
}

Router::CircFwd Router::try_circuit_forward(Flit& flit, Port in_port,
                                            Cycle now) {
  Message* msg = flit.msg;
  CircuitEntry* entry =
      circuits_.match(in_port, msg->circuit_dest, msg->circuit_addr, msg->id,
                      flit.is_head(), now);
  if (!entry) return CircFwd::NoEntry;
  const Port out = entry->out_port;
  const bool buffered = !cfg_.circuit.bufferless_circuit_vc();
  const bool fragmented = cfg_.circuit.mode == CircuitMode::Fragmented;
  if (circ_taken_ & (std::uint32_t{1} << out)) {
    if (!buffered) ++stats_->at(Ctr::circ_skid_block);
    if (obs_) obs_->on_circuit_blocked(id_, in_port, flit, now);
    return CircFwd::Blocked;
  }
  const int arrival_vc = flit.vc;
  const int fwd_vc = fragmented ? entry->vc : flit.vc;
  if (buffered && out != port_of(Dir::Local)) {
    std::int32_t& cr = credits_[flat_vc(out, vc_index(VNet::Reply, fwd_vc))];
    if (cr <= 0) {
      if (obs_) obs_->on_circuit_blocked(id_, in_port, flit, now);
      return CircFwd::Blocked;
    }
    --cr;
  }
  circ_taken_ |= std::uint32_t{1} << out;
  if (flit.is_tail()) {
    if (!msg->scrounging) {
      // The owner's tail clears the B bit and, for Fragmented, releases the
      // claimed output circuit VC.
      if (fragmented)
        outputs_[out].clear_busy(vc_index(VNet::Reply, entry->vc));
      circuits_.release(in_port, msg->circuit_dest, msg->circuit_addr,
                        msg->id, now);
    } else {
      entry->bound_msg = 0;  // scroungers only borrow the entry (§4.5)
    }
  }
  flit.vc = fwd_vc;
  send_flit(out, flit, now);
  ++stats_->at(Ctr::circ_fwd);
  if (obs_) obs_->on_circuit_forwarded(id_, in_port, flit, now);
  // The flit never occupied our buffer: hand the slot straight back.
  if (buffered) send_credit(in_port, VNet::Reply, arrival_vc, now);
  return CircFwd::Forwarded;
}

void Router::process_arrivals(Cycle now) {
  // Ascending port order over the union of retry- and arrival-pending ports
  // (identical visit order to a dense 0..kNumDirs scan; ports without a bit
  // have provably nothing to do).
  for (std::uint32_t ports = retry_pending_ | in_pending_; ports;
       ports &= ports - 1) {
    const int p = std::countr_zero(ports);
    auto& ip = inputs_[p];
    // Blocked circuit flits (Fragmented/Ideal) retry with priority, in order.
    while (!ip.circ_retry.empty()) {
      Flit f = ip.circ_retry.front();
      ++stats_->at(Ctr::circ_check);
      CircFwd r = try_circuit_forward(f, static_cast<Port>(p), now);
      if (r == CircFwd::Blocked) break;  // keep per-packet flit order
      ip.circ_retry.pop_front();
      if (ip.circ_retry.empty()) retry_pending_ &= ~(std::uint32_t{1} << p);
      if (r == CircFwd::NoEntry) {
        RC_ASSERT(!cfg_.circuit.bufferless_circuit_vc(),
                  "complete-circuit flit lost its reservation");
        if (f.is_head()) f.msg->circuit_partial = true;
        buffer_flit(f, static_cast<Port>(p), now);
      }
    }
    if (!wires_[p].in_data) continue;
    while (auto f = wires_[p].in_data->pop_ready(now)) {
      Flit flit = *f;
      if (flit.on_circuit) {
        ++stats_->at(Ctr::circ_check);
        if (!ip.circ_retry.empty()) {
          // Blocked circuit flits ahead of us. Queue behind them only when
          // this flit can interact with the circuit machinery here: an
          // earlier flit of its own packet is queued (its head may bind once
          // processed, and packet order must hold), its message is bound at
          // this table, or it is a head that could bind an entry. Any other
          // flit has no entry and never will — its packet-mates already took
          // the normal pipeline when the queue was empty, so detaining it
          // behind an unrelated blocked circuit strands a packet fragment
          // (the input VC would see a tail with no head); let it fall
          // through to the buffer as the NoEntry it is. Bufferless circuit
          // VCs (Complete) cannot fall back and keep strict order.
          bool same_packet_queued = false;
          for (const Flit& q : ip.circ_retry)
            if (q.msg == flit.msg) {
              same_packet_queued = true;
              break;
            }
          const bool fallback_ok =
              !cfg_.circuit.bufferless_circuit_vc() && !same_packet_queued &&
              !circuits_.table(static_cast<Port>(p))
                   .could_match(flit.msg->circuit_dest, flit.msg->circuit_addr,
                                flit.msg->id, flit.is_head(), now);
          if (!fallback_ok) {
            ip.circ_retry.push_back(flit);  // stay behind blocked flits
            retry_pending_ |= std::uint32_t{1} << p;
            continue;
          }
          if (flit.is_head()) flit.msg->circuit_partial = true;
          buffer_flit(flit, static_cast<Port>(p), now);
          continue;
        }
        CircFwd r = try_circuit_forward(flit, static_cast<Port>(p), now);
        if (r == CircFwd::Forwarded) continue;
        if (r == CircFwd::Blocked) {
          ip.circ_retry.push_back(flit);  // retry next cycle
          retry_pending_ |= std::uint32_t{1} << p;
          continue;
        }
        // NoEntry: this hop was never (or no longer) reserved.
        if (cfg_.circuit.bufferless_circuit_vc()) {
          std::fprintf(stderr,
                       "router %d in_port %d @%llu: msg=%llu %s seq=%d "
                       "scrounging=%d circ_dest=%d addr=%llx\n",
                       id_, p, (unsigned long long)now,
                       (unsigned long long)flit.msg->id,
                       to_string(flit.msg->type), flit.seq,
                       (int)flit.msg->scrounging, flit.msg->circuit_dest,
                       (unsigned long long)flit.msg->circuit_addr);
          RC_ASSERT(false, "complete-circuit flit blocked or without entry");
        }
        if (flit.is_head()) flit.msg->circuit_partial = true;
        // Fragmented/Ideal: continue through the normal pipeline.
      }
      buffer_flit(flit, static_cast<Port>(p), now);
    }
    if (wires_[p].in_data->ring_empty())
      in_pending_ &= ~(std::uint32_t{1} << p);
  }
}

void Router::buffer_flit(const Flit& flit, Port p, Cycle now) {
  int idx = vc_index(flit.vnet, flit.vc);
  RC_DASSERT(vc_has_buffer(flit.vnet, flit.vc), "flit buffered in bufferless VC");
  auto& ivc = inputs_[p].vcs[idx];
  if (static_cast<int>(ivc.buf.size()) >= cfg_.buffer_depth_flits) {
    std::fprintf(stderr,
                 "OVERFLOW r=%d p=%d vc_idx=%d @%llu: msg=%llu %s seq=%d "
                 "on_circ=%d buf_front=%llu(%s seq%d)\n",
                 id_, p, idx, static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(flit.msg->id),
                 to_string(flit.msg->type), flit.seq, (int)flit.on_circuit,
                 static_cast<unsigned long long>(ivc.buf.front().msg->id),
                 to_string(ivc.buf.front().msg->type), ivc.buf.front().seq);
    RC_ASSERT(false, "input buffer overflow");
  }
  ivc.buf.push_back(flit);
  occ_mask_[p] |= std::uint64_t{1} << idx;
  ++n_buffered_;
  ++stats_->at(Ctr::buf_write);
  if (obs_) obs_->on_flit_buffered(id_, p, flit, now);
  if (ivc.state == VCState::Idle) try_start_packet(p, idx, now);
}

void Router::try_start_packet(Port p, int vc_idx, Cycle now) {
  auto& ivc = inputs_[p].vcs[vc_idx];
  if (ivc.state != VCState::Idle || ivc.buf.empty()) return;
  const Flit& head = ivc.buf.front();
  if (!head.is_head()) {
    std::fprintf(stderr,
                 "router %d port %d vc_idx %d @%llu: buf front msg=%llu "
                 "type=%s seq=%d size=%d (buf depth %zu)\n",
                 id_, p, vc_idx, static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(head.msg->id),
                 to_string(head.msg->type), head.seq, head.msg->size_flits,
                 ivc.buf.size());
    for (const auto& f : ivc.buf)
      std::fprintf(stderr, "  flit msg=%llu seq=%d vc=%d\n",
                   static_cast<unsigned long long>(f.msg->id), f.seq, f.vc);
  }
  RC_ASSERT(head.is_head(), "packet must start with a head flit");
  const Message* msg = head.msg;
  bool yx = head.vnet == VNet::Reply && cfg_.replies_yx;
  Dir out = topo_->route(id_, msg->dest, yx);
  vc_out_port_[flat_vc(p, vc_idx)] = static_cast<std::uint8_t>(port_of(out));
  ivc.state = VCState::WaitVA;
  waitva_mask_[p] |= std::uint64_t{1} << vc_idx;
  vc_stage_ready_[flat_vc(p, vc_idx)] = now + 1;
  ++n_waitva_;
}

void Router::stage_st(Cycle now) {
  for (std::uint32_t m = st_busy_; m; m &= m - 1) {
    const int o = std::countr_zero(m);
    if (st_ready_[o] > now) continue;
    if (circ_taken_ & (std::uint32_t{1} << o))
      continue;  // circuit flits own the port (§4.3)
    auto& op = outputs_[o];
    send_flit(static_cast<Port>(o), *op.st_latch, now);
    op.st_latch.reset();
    st_busy_ &= ~(std::uint32_t{1} << o);
  }
}

void Router::stage_sa(Cycle now) {
  if (n_active_ == 0) return;
  const int nvcs = total_vcs();
  // Input-first separable allocation: each input port nominates one VC,
  // then each output port picks one input. Only VCs in Active state (the
  // per-port active_mask) are scanned; each input's out_port is unique, so
  // the nominations translate directly into per-output request masks.
  // Eligibility reads only the packed arrays (occupancy via occ_mask, then
  // stage_ready / out_port / credits); the fat per-VC structs are touched
  // for the winners alone.
  std::array<int, kNumDirs> nominee{};  // vc index or -1
  nominee.fill(-1);
  std::array<std::uint64_t, kNumDirs> out_req{};  // bit i: input i requests o
  for (int i = 0; i < kNumDirs; ++i) {
    std::uint64_t req = 0;
    for (std::uint64_t m = active_mask_[i] & occ_mask_[i]; m;
         m &= m - 1) {
      const int v = std::countr_zero(m);
      const int fv = i * nvcs + v;
      if (vc_stage_ready_[fv] > now) continue;
      if (st_busy_ & (std::uint32_t{1} << vc_out_port_[fv]))
        continue;  // traversal register still occupied
      if (credits_[vc_out_port_[fv] * nvcs + vc_out_vci_[fv]] <= 0) continue;
      req |= std::uint64_t{1} << v;
    }
    if (!req) continue;
    nominee[i] = inputs_[i].sa_input_arb.grant(req);
    out_req[vc_out_port_[i * nvcs + nominee[i]]] |= std::uint64_t{1} << i;
  }
  for (int o = 0; o < kNumDirs; ++o) {
    if (!out_req[o]) continue;
    const int win = outputs_[o].sa_output_arb.grant(out_req[o]);
    if (win < 0) continue;
    const int vc_idx = nominee[win];
    const int fv = win * nvcs + vc_idx;
    auto& ivc = inputs_[win].vcs[vc_idx];
    Flit f = ivc.buf.front();
    ivc.buf.pop_front();
    --n_buffered_;
    if (ivc.buf.empty())
      occ_mask_[win] &= ~(std::uint64_t{1} << vc_idx);
    ++stats_->at(Ctr::buf_read);
    ++stats_->at(Ctr::sa_ops);
    send_credit(static_cast<Port>(win), f.vnet, vcidx_within_[vc_idx], now);
    f.vc = vc_out_vc_[fv];
    auto& op = outputs_[o];
    --credits_[o * nvcs + vc_out_vci_[fv]];
    op.st_latch = f;
    st_ready_[o] = now + 1;
    st_busy_ |= std::uint32_t{1} << o;
    if (f.is_tail()) {
      op.clear_busy(vc_out_vci_[fv]);
      ivc.state = VCState::Idle;
      active_mask_[win] &= ~(std::uint64_t{1} << vc_idx);
      --n_active_;
      try_start_packet(static_cast<Port>(win), vc_idx, now);
    } else {
      vc_stage_ready_[fv] = now + 1;
    }
  }
}

void Router::stage_va(Cycle now) {
  if (n_waitva_ == 0) return;
  const int nvcs = total_vcs();
  // Requests from input VCs in WaitVA (the per-port waitva_mask),
  // pre-grouped per output port into two allocation classes: request VN and
  // reply (non-circuit). Each free output VC then round-robins over the
  // matching mask. An input VC takes at most one grant per cycle.
  std::uint64_t mask[kNumDirs][2] = {};
  bool any = false;
  for (int i = 0; i < kNumDirs; ++i) {
    for (std::uint64_t m = waitva_mask_[i] & occ_mask_[i]; m;
         m &= m - 1) {
      const int v = std::countr_zero(m);
      const int fv = i * nvcs + v;
      if (vc_stage_ready_[fv] > now) continue;
      // Circuit VCs are never VC-allocated: complete mode's is bufferless,
      // and fragmented claims them at reservation time. A circuit packet
      // pipelining through an unreserved hop travels in a normal VC and
      // re-enters its circuit VCs via the per-hop circuit check. The
      // allocation class is the VC's own VN — flits are buffered at
      // vc_index(their VN, vc), so the resident head's VN is vcidx_vnet_[v].
      int cls = vcidx_vnet_[v] == VNet::Request ? 0 : 1;
      mask[vc_out_port_[fv]][cls] |= std::uint64_t{1} << fv;
      any = true;
    }
  }
  if (!any) return;
  std::uint64_t granted = 0;
  for (int o = 0; o < kNumDirs; ++o) {
    auto& op = outputs_[o];
    if (!(mask[o][0] | mask[o][1])) continue;
    // Free allocatable output VCs: the static eligibility mask (buffered,
    // non-circuit) minus the currently claimed ones.
    for (std::uint64_t avail = va_allocatable_mask_ & ~op.busy_mask; avail;
         avail &= avail - 1) {
      const int ov = std::countr_zero(avail);
      const VNet ovn = vcidx_vnet_[ov];
      std::uint64_t req =
          (ovn == VNet::Request ? mask[o][0] : mask[o][1]) & ~granted;
      if (!req) continue;
      int win = op.va_arb[ov].grant(req);
      if (win < 0) continue;
      granted |= std::uint64_t{1} << win;
      int i = win / nvcs, v = win % nvcs;
      auto& ivc = inputs_[i].vcs[v];
      ivc.state = VCState::Active;
      waitva_mask_[i] &= ~(std::uint64_t{1} << v);
      active_mask_[i] |= std::uint64_t{1} << v;
      --n_waitva_;
      ++n_active_;
      vc_out_vc_[win] = static_cast<std::uint8_t>(vcidx_within_[ov]);
      vc_out_vci_[win] = static_cast<std::uint8_t>(ov);
      // Pipelines deeper than the paper's 4 stages spend the extra cycles
      // between VC allocation and switch allocation.
      vc_stage_ready_[win] = now + 1 + (cfg_.router_stages - 4);
      op.set_busy(ov);
      ++stats_->at(Ctr::va_ops);
      Message* msg = ivc.buf.front().msg;
      if (ivc.buf.front().vnet == VNet::Request && msg->build_circuit &&
          circuits_.enabled()) {
        maybe_build_circuit(msg, static_cast<Port>(i), vc_out_port_[win], now);
      }
    }
  }
}

void Router::maybe_build_circuit(Message* msg, Port req_in, Port req_out,
                                 Cycle now) {
  if (!msg->circuit_ok) return;  // a previous router already aborted it

  ReserveRequest r;
  r.src = msg->dest;   // circuit source: the node that will send the reply
  r.dest = msg->src;   // circuit destination: the requestor
  r.addr = msg->addr;
  r.in_port = req_out;  // reply arrives where the request departs
  r.out_port = req_in;  // and leaves where the request arrived
  r.owner_req = msg->id;
  if (cfg_.circuit.mode == CircuitMode::Fragmented) {
    for (int k = 0; k < num_circuit_vcs(); ++k) {
      const auto& ovc = outputs_[r.out_port].vcs[vc_index(VNet::Reply, k)];
      if (!ovc.busy) r.free_circuit_vcs |= 1u << k;
    }
  }
  bool allow_delay = false;
  bool precheck_failed = false;

  if (cfg_.circuit.is_timed()) {
    const int D = topo_->hops(id_, msg->dest);
    const int traveled = msg->path_hops - D;
    const Cycle exp_va = lat_.expected_va(msg->injected, traveled);
    const int lateness =
        now > exp_va ? static_cast<int>(now - exp_va) : 0;
    const int B = cfg_.circuit.slack_per_hop * msg->path_hops;
    const int rf = msg->reply_size_flits;
    const Cycle tau = msg->injected + lat_.request_total(msg->path_hops) +
                      estimated_service_cycles(msg->type, cfg_) +
                      lat_.ni_turnaround();
    const Cycle pass = tau + lat_.reply_transit(D);
    switch (cfg_.circuit.timed) {
      case TimedMode::Exact:
        if (lateness > 0) precheck_failed = true;
        r.slot_start = pass;
        r.slot_end = pass + rf - 1;
        break;
      case TimedMode::Slack:
      case TimedMode::SlackDelay: {
        int ud = std::max(msg->used_delay, lateness);
        if (ud > B) {
          precheck_failed = true;
        } else {
          msg->used_delay = ud;
        }
        r.slot_start = pass + ud;
        r.slot_end = pass + rf - 1 + B;
        if (cfg_.circuit.timed == TimedMode::SlackDelay) {
          allow_delay = true;
          r.max_extra_delay = B - ud;
        }
        break;
      }
      case TimedMode::Postponed:
        if (lateness > B) precheck_failed = true;
        r.slot_start = pass + B;
        r.slot_end = pass + B + rf - 1;
        break;
      case TimedMode::None:
        break;
    }
  }

  if (!precheck_failed) {
    ReserveResult res = circuits_.try_reserve(now, r, allow_delay);
    if (res.ok) {
      msg->used_delay += res.extra_delay;
      if (res.claimed_vc >= 0) {
        // Fragmented: the reservation pre-allocates the output circuit VC.
        outputs_[r.out_port].set_busy(vc_index(VNet::Reply, res.claimed_vc));
      }
      return;
    }
  } else {
    ++stats_->at(Ctr::circ_fail_conflict);
  }

  if (cfg_.circuit.mode == CircuitMode::Fragmented) {
    msg->circuit_partial = true;  // keep what we have, keep trying (§4.2)
    return;
  }
  RC_ASSERT(cfg_.circuit.mode != CircuitMode::Ideal,
            "ideal reservation can never fail");
  msg->circuit_ok = false;
  ++stats_->at(Ctr::circ_build_aborted);
  // Tear down the part already built, via the upstream credit wires (§4.4).
  if (req_in != port_of(Dir::Local) && wires_[req_in].in_credits) {
    Credit cr;
    cr.vnet = VNet::Reply;
    cr.vc = -1;
    cr.undo = UndoRecord{msg->src, msg->addr, msg->id};
    wires_[req_in].in_credits->push(cr, now);
  }
}

void Router::send_flit(Port out, const Flit& flit, Cycle now) {
  RC_DASSERT(wires_[out].out_data != nullptr, "flit routed to unwired port");
  wires_[out].out_data->push(flit, now);
  ++flits_routed_;
  ++stats_->at(Ctr::xbar);
  if (out != port_of(Dir::Local)) ++stats_->at(Ctr::link_flit);
}

void Router::send_credit(Port in_port, VNet vn, int vc, Cycle now) {
  if (!wires_[in_port].in_credits) return;
  Credit cr;
  cr.vnet = vn;
  cr.vc = vc;
  wires_[in_port].in_credits->push(cr, now);
}

namespace {
template <std::size_t N>
void save_ring(StateWriter& w, const InlineRing<Flit, N>& ring) {
  w.u64(ring.size());
  for (const Flit& f : ring) save_flit(w, f);
}
template <std::size_t N>
bool load_ring(StateReader& r, InlineRing<Flit, N>* ring) {
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  ring->clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    Flit f;
    if (!load_flit(r, &f)) return false;
    ring->push_back(f);
  }
  return true;
}
}  // namespace

void Router::save(StateWriter& w) const {
  w.u64(flits_routed_);
  w.i64(n_waitva_);
  w.i64(n_active_);
  w.i64(n_buffered_);
  w.u32(in_pending_);
  w.u32(cr_pending_);
  w.u32(retry_pending_);
  w.u32(st_busy_);
  w.u32(circ_taken_);
  for (Cycle c : st_ready_) w.u64(c);
  for (std::uint64_t m : occ_mask_) w.u64(m);
  for (std::uint64_t m : waitva_mask_) w.u64(m);
  for (std::uint64_t m : active_mask_) w.u64(m);
  w.u64(vc_stage_ready_.size());
  for (std::size_t i = 0; i < vc_stage_ready_.size(); ++i) {
    w.u64(vc_stage_ready_[i]);
    w.u8(vc_out_port_[i]);
    w.u8(vc_out_vc_[i]);
    w.u8(vc_out_vci_[i]);
    w.i64(credits_[i]);
  }
  for (const InputPort& ip : inputs_) {
    for (const InputVC& vc : ip.vcs) {
      w.u8(static_cast<std::uint8_t>(vc.state));
      save_ring(w, vc.buf);
    }
    w.i64(ip.sa_input_arb.pointer());
    save_ring(w, ip.circ_retry);
  }
  for (const OutputPort& op : outputs_) {
    w.u64(op.busy_mask);
    w.i64(op.sa_output_arb.pointer());
    for (const RoundRobinArbiter& a : op.va_arb) w.i64(a.pointer());
    w.b(op.st_latch.has_value());
    if (op.st_latch) save_flit(w, *op.st_latch);
  }
  w.u64(undo_latch_.size());
  for (const auto& [p, rec] : undo_latch_) {
    w.i64(p);
    save_undo(w, rec);
  }
  circuits_.save(w);
}

bool Router::load(StateReader& r) {
  std::int64_t nw, na, nb;
  if (!(r.u64(&flits_routed_) && r.i64(&nw) && r.i64(&na) && r.i64(&nb) &&
        r.u32(&in_pending_) && r.u32(&cr_pending_) && r.u32(&retry_pending_) &&
        r.u32(&st_busy_) && r.u32(&circ_taken_)))
    return false;
  n_waitva_ = static_cast<int>(nw);
  n_active_ = static_cast<int>(na);
  n_buffered_ = static_cast<int>(nb);
  for (Cycle& c : st_ready_)
    if (!r.u64(&c)) return false;
  for (std::uint64_t& m : occ_mask_)
    if (!r.u64(&m)) return false;
  for (std::uint64_t& m : waitva_mask_)
    if (!r.u64(&m)) return false;
  for (std::uint64_t& m : active_mask_)
    if (!r.u64(&m)) return false;
  std::uint64_t nvc;
  if (!r.u64(&nvc)) return false;
  if (nvc != vc_stage_ready_.size())
    return r.fail("router has " + std::to_string(vc_stage_ready_.size()) +
                  " VC slots, snapshot has " + std::to_string(nvc));
  for (std::size_t i = 0; i < vc_stage_ready_.size(); ++i) {
    std::int64_t cr;
    if (!(r.u64(&vc_stage_ready_[i]) && r.u8(&vc_out_port_[i]) &&
          r.u8(&vc_out_vc_[i]) && r.u8(&vc_out_vci_[i]) && r.i64(&cr)))
      return false;
    credits_[i] = static_cast<std::int32_t>(cr);
  }
  for (InputPort& ip : inputs_) {
    for (InputVC& vc : ip.vcs) {
      std::uint8_t st;
      if (!r.u8(&st)) return false;
      if (st > static_cast<std::uint8_t>(VCState::Active))
        return r.fail("VC state out of range");
      vc.state = static_cast<VCState>(st);
      if (!load_ring(r, &vc.buf)) return false;
    }
    std::int64_t ptr;
    if (!r.i64(&ptr)) return false;
    ip.sa_input_arb.set_pointer(static_cast<int>(ptr));
    if (!load_ring(r, &ip.circ_retry)) return false;
  }
  for (OutputPort& op : outputs_) {
    std::int64_t ptr;
    if (!(r.u64(&op.busy_mask) && r.i64(&ptr))) return false;
    op.sa_output_arb.set_pointer(static_cast<int>(ptr));
    for (RoundRobinArbiter& a : op.va_arb) {
      if (!r.i64(&ptr)) return false;
      a.set_pointer(static_cast<int>(ptr));
    }
    for (std::size_t v = 0; v < op.vcs.size(); ++v)
      op.vcs[v].busy = (op.busy_mask >> v) & 1;
    bool has_latch;
    if (!r.b(&has_latch)) return false;
    if (has_latch) {
      Flit f;
      if (!load_flit(r, &f)) return false;
      op.st_latch = f;
    } else {
      op.st_latch.reset();
    }
  }
  std::uint64_t nu;
  if (!r.u64(&nu)) return false;
  undo_latch_.clear();
  for (std::uint64_t i = 0; i < nu; ++i) {
    std::int64_t p;
    UndoRecord rec;
    if (!(r.i64(&p) && load_undo(r, &rec))) return false;
    undo_latch_.emplace_back(static_cast<Port>(p), rec);
  }
  return circuits_.load(r);
}

}  // namespace rc
