#include "noc/message.hpp"

#include "common/config.hpp"
#include "common/state.hpp"

namespace rc {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::GetS: return "GetS";
    case MsgType::GetX: return "GetX";
    case MsgType::WbData: return "WbData";
    case MsgType::Inv: return "Inv";
    case MsgType::FwdGetS: return "FwdGetS";
    case MsgType::FwdGetX: return "FwdGetX";
    case MsgType::MemRead: return "MemRead";
    case MsgType::MemWb: return "MemWb";
    case MsgType::L2Reply: return "L2Reply";
    case MsgType::L1DataAck: return "L1DataAck";
    case MsgType::L2WbAck: return "L2WbAck";
    case MsgType::L1InvAck: return "L1InvAck";
    case MsgType::MemData: return "MemData";
    case MsgType::MemAck: return "MemAck";
    case MsgType::L1ToL1: return "L1ToL1";
  }
  return "?";
}

VNet vnet_of(MsgType t) {
  switch (t) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::WbData:
    case MsgType::Inv:
    case MsgType::FwdGetS:
    case MsgType::FwdGetX:
    case MsgType::MemRead:
    case MsgType::MemWb:
      return VNet::Request;
    default:
      return VNet::Reply;
  }
}

bool request_builds_circuit(MsgType t) {
  switch (t) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::WbData:
    case MsgType::MemRead:
    case MsgType::MemWb:
      return true;
    default:
      return false;
  }
}

bool reply_circuit_eligible(MsgType t) {
  switch (t) {
    case MsgType::L2Reply:
    case MsgType::L2WbAck:
    case MsgType::MemData:
    case MsgType::MemAck:
      return true;
    default:
      return false;
  }
}

bool is_data(MsgType t) {
  switch (t) {
    case MsgType::WbData:
    case MsgType::MemWb:
    case MsgType::L2Reply:
    case MsgType::MemData:
    case MsgType::L1ToL1:
      return true;
    default:
      return false;
  }
}

const char* to_string(CircuitOutcome o) {
  switch (o) {
    case CircuitOutcome::NotEligible: return "NotEligible";
    case CircuitOutcome::Used: return "Used";
    case CircuitOutcome::Partial: return "Partial";
    case CircuitOutcome::Failed: return "Failed";
    case CircuitOutcome::Undone: return "Undone";
    case CircuitOutcome::Scrounged: return "Scrounged";
    case CircuitOutcome::None: return "None";
  }
  return "?";
}

const char* to_string(ReplyCategory c) {
  switch (c) {
    case ReplyCategory::NotReply: return "not_reply";
    case ReplyCategory::Used: return "used";
    case ReplyCategory::Partial: return "partial";
    case ReplyCategory::Failed: return "failed";
    case ReplyCategory::Undone: return "undone";
    case ReplyCategory::Scrounged: return "scrounged";
    case ReplyCategory::NotEligible: return "not_eligible";
    case ReplyCategory::EligibleNoCirc: return "eligible_nocirc";
    case ReplyCategory::ScroungeHop: return "scrounge_hop";
  }
  return "?";
}

ReplyCategory classify_reply_category(const Message& m,
                                      const CircuitConfig& cfg) {
  if (!m.is_reply()) return ReplyCategory::NotReply;
  if (m.scrounging) return ReplyCategory::ScroungeHop;
  if (m.outcome == CircuitOutcome::Scrounged) return ReplyCategory::Scrounged;
  if (m.undone_marker) return ReplyCategory::Undone;
  if (!reply_circuit_eligible(m.type)) return ReplyCategory::NotEligible;
  if (!cfg.uses_circuits()) return ReplyCategory::EligibleNoCirc;
  if (m.on_circuit)
    return m.circuit_partial ? ReplyCategory::Partial : ReplyCategory::Used;
  switch (m.outcome) {
    case CircuitOutcome::Failed: return ReplyCategory::Failed;
    case CircuitOutcome::Undone: return ReplyCategory::Undone;
    default: return ReplyCategory::EligibleNoCirc;
  }
}

void save_message(StateWriter& w, const Message& m) {
  w.u64(m.id);
  w.u8(static_cast<std::uint8_t>(m.type));
  w.i64(m.src);
  w.i64(m.dest);
  w.u64(m.addr);
  w.i64(m.size_flits);
  w.b(m.exclusive);
  w.i64(m.fwd_requestor);
  w.b(m.downgrade);
  w.b(m.build_circuit);
  w.b(m.circuit_ok);
  w.b(m.circuit_partial);
  w.i64(m.used_delay);
  w.i64(m.path_hops);
  w.i64(m.reply_size_flits);
  w.b(m.on_circuit);
  w.i64(m.circuit_dest);
  w.u64(m.circuit_addr);
  w.b(m.scrounging);
  w.i64(m.final_dest);
  w.b(m.ack_elided);
  w.b(m.undone_marker);
  w.u8(static_cast<std::uint8_t>(m.outcome));
  w.u64(m.created);
  w.u64(m.injected);
  w.u64(m.delivered);
}

bool load_message(StateReader& r, Message* m) {
  std::uint8_t type, outcome;
  std::int64_t src, dest, size_flits, fwd_requestor, used_delay, path_hops,
      reply_size_flits, circuit_dest, final_dest;
  if (!(r.u64(&m->id) && r.u8(&type) && r.i64(&src) && r.i64(&dest) &&
        r.u64(&m->addr) && r.i64(&size_flits) && r.b(&m->exclusive) &&
        r.i64(&fwd_requestor) && r.b(&m->downgrade) && r.b(&m->build_circuit) &&
        r.b(&m->circuit_ok) && r.b(&m->circuit_partial) && r.i64(&used_delay) &&
        r.i64(&path_hops) && r.i64(&reply_size_flits) && r.b(&m->on_circuit) &&
        r.i64(&circuit_dest) && r.u64(&m->circuit_addr) && r.b(&m->scrounging) &&
        r.i64(&final_dest) && r.b(&m->ack_elided) && r.b(&m->undone_marker) &&
        r.u8(&outcome) && r.u64(&m->created) && r.u64(&m->injected) &&
        r.u64(&m->delivered)))
    return false;
  if (type >= kNumMsgTypes) return r.fail("message type out of range");
  if (outcome > static_cast<std::uint8_t>(CircuitOutcome::None))
    return r.fail("circuit outcome out of range");
  m->type = static_cast<MsgType>(type);
  m->outcome = static_cast<CircuitOutcome>(outcome);
  m->src = static_cast<NodeId>(src);
  m->dest = static_cast<NodeId>(dest);
  m->size_flits = static_cast<int>(size_flits);
  m->fwd_requestor = static_cast<NodeId>(fwd_requestor);
  m->used_delay = static_cast<int>(used_delay);
  m->path_hops = static_cast<int>(path_hops);
  m->reply_size_flits = static_cast<int>(reply_size_flits);
  m->circuit_dest = static_cast<NodeId>(circuit_dest);
  m->final_dest = static_cast<NodeId>(final_dest);
  return true;
}

void save_msg_ref(StateWriter& w, const MsgPtr& m) {
  w.u64(m ? m->id : 0);
  if (m) w.note_shared(m->id, m);
}

bool load_msg_ref(StateReader& r, MsgPtr* m) {
  std::uint64_t id;
  if (!r.u64(&id)) return false;
  if (id == 0) {
    m->reset();
    return true;
  }
  auto p = r.get_shared(id);
  if (!p) return r.fail("unresolved message id " + std::to_string(id));
  *m = std::static_pointer_cast<Message>(p);
  return true;
}

void save_flit(StateWriter& w, const Flit& f) {
  // Flits hold raw pointers; the MessagePool pin guarantees the message is
  // (or will be) registered in the writer's shared table, so the id alone
  // round-trips the reference.
  w.u64(f.msg ? f.msg->id : 0);
  w.i64(f.seq);
  w.u8(static_cast<std::uint8_t>(f.vnet));
  w.i64(f.vc);
  w.b(f.on_circuit);
}

bool load_flit(StateReader& r, Flit* f) {
  std::uint64_t id;
  std::int64_t seq, vc;
  std::uint8_t vnet;
  if (!(r.u64(&id) && r.i64(&seq) && r.u8(&vnet) && r.i64(&vc) &&
        r.b(&f->on_circuit)))
    return false;
  if (vnet >= kNumVNets) return r.fail("flit vnet out of range");
  if (id == 0) {
    f->msg = nullptr;
  } else {
    auto p = r.get_shared(id);
    if (!p) return r.fail("flit references unknown message id " +
                          std::to_string(id));
    f->msg = static_cast<Message*>(p.get());
  }
  f->seq = static_cast<int>(seq);
  f->vnet = static_cast<VNet>(vnet);
  f->vc = static_cast<int>(vc);
  return true;
}

void save_undo(StateWriter& w, const UndoRecord& u) {
  w.i64(u.circuit_dest);
  w.u64(u.addr);
  w.u64(u.owner_req);
}

bool load_undo(StateReader& r, UndoRecord* u) {
  std::int64_t dest;
  if (!(r.i64(&dest) && r.u64(&u->addr) && r.u64(&u->owner_req))) return false;
  u->circuit_dest = static_cast<NodeId>(dest);
  return true;
}

void save_credit(StateWriter& w, const Credit& c) {
  w.u8(static_cast<std::uint8_t>(c.vnet));
  w.i64(c.vc);
  w.b(c.undo.has_value());
  if (c.undo) save_undo(w, *c.undo);
}

bool load_credit(StateReader& r, Credit* c) {
  std::uint8_t vnet;
  std::int64_t vc;
  bool has_undo;
  if (!(r.u8(&vnet) && r.i64(&vc) && r.b(&has_undo))) return false;
  if (vnet >= kNumVNets) return r.fail("credit vnet out of range");
  c->vnet = static_cast<VNet>(vnet);
  c->vc = static_cast<int>(vc);
  if (has_undo) {
    c->undo.emplace();
    return load_undo(r, &*c->undo);
  }
  c->undo.reset();
  return true;
}

}  // namespace rc
