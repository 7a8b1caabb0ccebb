#include "circuits/circuit_table.hpp"

#include <string>

#include "common/state.hpp"

namespace rc {

int CircuitTable::live_count(Cycle now) const {
  int n = 0;
  for (const auto& e : slots_)
    if (e.live(now)) ++n;
  return n;
}

CircuitEntry* CircuitTable::find(NodeId dest, Addr addr, std::uint64_t msg_id,
                                 bool bind_new, Cycle now) {
  // Among unbound same-identity entries (two circuit instances can coexist,
  // e.g. a write-back and a re-fetch of the same line), a head flit must
  // bind the instance whose reserved slot is actually active — replies from
  // one source are serialized, so the earliest active slot is the right one.
  CircuitEntry* unbound = nullptr;
  for (auto& e : slots_) {
    if (!e.live(now) || e.dest != dest || e.addr != addr) continue;
    if (e.bound_msg == msg_id) return &e;
    if (e.bound_msg != 0) continue;
    if (!unbound) {
      unbound = &e;
      continue;
    }
    const bool e_active = e.slot_start <= now;
    const bool u_active = unbound->slot_start <= now;
    if (e_active != u_active ? e_active
                             : e.slot_start < unbound->slot_start)
      unbound = &e;
  }
  if (unbound && bind_new) {
    unbound->bound_msg = msg_id;
    if (obs_) obs_->on_circuit_bound(node_, port_, *unbound, msg_id, now);
    return unbound;
  }
  return nullptr;
}

bool CircuitTable::could_match(NodeId dest, Addr addr, std::uint64_t msg_id,
                               bool is_head, Cycle now) const {
  for (const auto& e : slots_) {
    if (!e.live(now) || e.dest != dest || e.addr != addr) continue;
    if (e.bound_msg == msg_id) return true;
    if (e.bound_msg == 0 && is_head) return true;
  }
  return false;
}

const CircuitEntry* CircuitTable::conflicting_output(Port out_port, Cycle s,
                                                     Cycle e, Cycle now) const {
  for (const auto& ent : slots_)
    if (ent.live(now) && ent.out_port == out_port && ent.overlaps(s, e))
      return &ent;
  return nullptr;
}

const CircuitEntry* CircuitTable::conflicting_slot(Cycle s, Cycle e,
                                                   Cycle now) const {
  for (const auto& ent : slots_)
    if (ent.live(now) && ent.overlaps(s, e)) return &ent;
  return nullptr;
}

bool CircuitTable::has_other_source(NodeId src, Cycle now) const {
  for (const auto& e : slots_)
    if (e.live(now) && e.src != src) return true;
  return false;
}

bool CircuitTable::insert(const CircuitEntry& e, Cycle now) {
  // Reuse an invalid or expired slot first.
  for (auto& s : slots_) {
    if (!s.valid || s.expired(now)) {
      if (s.valid && obs_) obs_->on_circuit_reclaimed(node_, port_, s, now);
      s = e;
      s.valid = true;
      if (obs_) obs_->on_circuit_inserted(node_, port_, s, now);
      return true;
    }
  }
  if (unbounded() || static_cast<int>(slots_.size()) < capacity_) {
    slots_.push_back(e);
    slots_.back().valid = true;
    if (obs_) obs_->on_circuit_inserted(node_, port_, slots_.back(), now);
    return true;
  }
  return false;
}

std::optional<CircuitEntry> CircuitTable::release(NodeId dest, Addr addr,
                                                  std::uint64_t msg_id,
                                                  Cycle now) {
  CircuitEntry* victim = nullptr;
  for (auto& e : slots_) {
    if (!e.live(now) || e.dest != dest || e.addr != addr) continue;
    if (msg_id != 0 ? e.bound_msg == msg_id : e.bound_msg == 0) {
      victim = &e;
      break;
    }
    // A tail release (msg_id != 0) may fall back to any same-identity entry
    // (its binding can have been cleared by a scrounger, §4.5). A tear-down
    // (msg_id == 0) must never fall back to a bound entry: a reply is
    // riding it and its own tail will free it (§4.4).
    if (!victim && msg_id != 0) victim = &e;
  }
  if (!victim) return std::nullopt;
  CircuitEntry out = *victim;
  victim->valid = false;
  if (obs_) obs_->on_circuit_released(node_, port_, out, msg_id, now);
  return out;
}

std::optional<CircuitEntry> CircuitTable::release_instance(
    NodeId dest, Addr addr, std::uint64_t owner_req, Cycle now) {
  for (auto& e : slots_) {
    if (!e.live(now) || e.dest != dest || e.addr != addr) continue;
    if (owner_req != 0 && e.owner_req != owner_req) continue;
    if (e.bound_msg != 0) continue;  // a rider owns it now; its tail frees it
    CircuitEntry out = e;
    e.valid = false;
    if (obs_) obs_->on_circuit_undone(node_, port_, out, owner_req, now);
    return out;
  }
  return std::nullopt;
}

void CircuitTable::clear() { slots_.clear(); }

void CircuitTable::save(StateWriter& w) const {
  w.u64(slots_.size());
  for (const CircuitEntry& e : slots_) {
    w.b(e.valid);
    w.i64(e.src);
    w.i64(e.dest);
    w.u64(e.addr);
    w.i64(e.out_port);
    w.i64(e.vc);
    w.u64(e.owner_req);
    w.u64(e.bound_msg);
    w.u64(e.slot_start);
    w.u64(e.slot_end);
  }
}

bool CircuitTable::load(StateReader& r) {
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  if (capacity_ >= 0 && n > static_cast<std::uint64_t>(capacity_))
    return r.fail("circuit table overflow: " + std::to_string(n) +
                  " slots, capacity " + std::to_string(capacity_));
  slots_.assign(n, CircuitEntry{});
  for (CircuitEntry& e : slots_) {
    std::int64_t src, dest, out_port, vc;
    if (!(r.b(&e.valid) && r.i64(&src) && r.i64(&dest) && r.u64(&e.addr) &&
          r.i64(&out_port) && r.i64(&vc) && r.u64(&e.owner_req) &&
          r.u64(&e.bound_msg) && r.u64(&e.slot_start) && r.u64(&e.slot_end)))
      return false;
    e.src = static_cast<NodeId>(src);
    e.dest = static_cast<NodeId>(dest);
    e.out_port = static_cast<Port>(out_port);
    e.vc = static_cast<int>(vc);
  }
  return true;
}

}  // namespace rc
