#include "sim/telemetry.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "common/parse.hpp"
#include "common/state.hpp"
#include "noc/network.hpp"
#include "sim/report.hpp"

namespace rc {

const char* to_string(TelemetryEvent::Kind k) {
  switch (k) {
    case TelemetryEvent::Kind::Inject: return "inject";
    case TelemetryEvent::Kind::Deliver: return "deliver";
    case TelemetryEvent::Kind::Reserve: return "reserve";
    case TelemetryEvent::Kind::Reclaim: return "reclaim";
    case TelemetryEvent::Kind::Bind: return "bind";
    case TelemetryEvent::Kind::Use: return "use";
    case TelemetryEvent::Kind::Teardown: return "teardown";
    case TelemetryEvent::Kind::Undo: return "undo";
    case TelemetryEvent::Kind::UndoLaunch: return "undo_launch";
    case TelemetryEvent::Kind::StatsReset: return "reset";
  }
  return "?";
}

bool Telemetry::enabled_by_env() {
  const char* v = std::getenv("RC_TELEMETRY");
  return v != nullptr && v[0] != '\0';
}

std::unique_ptr<Telemetry> Telemetry::maybe_attach(Network* net) {
  if (!enabled_by_env()) return nullptr;
  const auto every = static_cast<Cycle>(env_positive_ll("RC_SAMPLE_EVERY", 0));
  return std::make_unique<Telemetry>(net, std::getenv("RC_TELEMETRY"), every);
}

Telemetry::Telemetry(Network* net, std::string path, Cycle sample_every)
    : net_(net),
      next_(net->observer()),
      path_(std::move(path)),
      sample_every_(sample_every) {
  if (const char* v = std::getenv("RC_TELEMETRY_TYPES"))
    if (v[0] != '\0' && std::string(v) != "0") emit_msg_types_ = true;
  per_node_.resize(static_cast<std::size_t>(net_->config().num_nodes()));
  net_->set_observer(this);
}

const NocConfig& Telemetry::noc_config() const { return net_->config(); }

Telemetry::~Telemetry() {
  // Restore the displaced observer (the Validator, when RC_CHECK is on) so
  // detaching telemetry never silently detaches validation too.
  if (net_ && net_->observer() == this) net_->set_observer(next_);
  if (!written_ && !path_.empty()) write();
}

TelemetryEvent Telemetry::circuit_event(TelemetryEvent::Kind k, Cycle now,
                                        NodeId node, Port port,
                                        const CircuitEntry& e) {
  TelemetryEvent ev;
  ev.kind = k;
  ev.cycle = now;
  ev.node = node;
  ev.port = static_cast<std::int16_t>(port);
  ev.vc = static_cast<std::int16_t>(e.vc);
  ev.dest = e.dest;
  ev.addr = e.addr;
  ev.owner = e.owner_req;
  return ev;
}

void Telemetry::on_message_injected(NodeId node, const Message& m, Cycle now) {
  TelemetryEvent ev;
  ev.kind = TelemetryEvent::Kind::Inject;
  ev.cycle = now;
  ev.node = node;
  ev.dest = m.dest;
  ev.msg = m.id;
  if (emit_msg_types_) ev.mtype = static_cast<std::int16_t>(m.type);
  record(node, ev);
  if (next_) next_->on_message_injected(node, m, now);
}

void Telemetry::on_message_delivered(NodeId node, const Message& m, Cycle now) {
  TelemetryEvent ev;
  ev.kind = TelemetryEvent::Kind::Deliver;
  ev.cycle = now;
  ev.node = node;
  ev.msg = m.id;
  ev.cat = classify_reply_category(m, net_->config().circuit);
  if (emit_msg_types_) ev.mtype = static_cast<std::int16_t>(m.type);
  record(node, ev);
  if (next_) next_->on_message_delivered(node, m, now);
}

void Telemetry::on_flit_buffered(NodeId node, Port in_port, const Flit& f,
                                 Cycle now) {
  // Per-flit events would dwarf the lifecycle trace; occupancy is covered
  // by the sampled series instead. Forward for the Validator's accounting.
  if (next_) next_->on_flit_buffered(node, in_port, f, now);
}

void Telemetry::on_circuit_forwarded(NodeId node, Port in_port, const Flit& f,
                                     Cycle now) {
  if (next_) next_->on_circuit_forwarded(node, in_port, f, now);
}

void Telemetry::on_circuit_blocked(NodeId node, Port in_port, const Flit& f,
                                   Cycle now) {
  if (next_) next_->on_circuit_blocked(node, in_port, f, now);
}

void Telemetry::on_undo_launched(NodeId node, NodeId circuit_dest, Addr addr,
                                 std::uint64_t owner_req, Cycle now) {
  TelemetryEvent ev;
  ev.kind = TelemetryEvent::Kind::UndoLaunch;
  ev.cycle = now;
  ev.node = node;
  ev.dest = circuit_dest;
  ev.addr = addr;
  ev.owner = owner_req;
  record(node, ev);
  if (next_) next_->on_undo_launched(node, circuit_dest, addr, owner_req, now);
}

void Telemetry::on_circuit_inserted(NodeId node, Port port,
                                    const CircuitEntry& e, Cycle now) {
  record(node, circuit_event(TelemetryEvent::Kind::Reserve, now, node, port, e));
  if (next_) next_->on_circuit_inserted(node, port, e, now);
}

void Telemetry::on_circuit_reclaimed(NodeId node, Port port,
                                     const CircuitEntry& e, Cycle now) {
  record(node, circuit_event(TelemetryEvent::Kind::Reclaim, now, node, port, e));
  if (next_) next_->on_circuit_reclaimed(node, port, e, now);
}

void Telemetry::on_circuit_bound(NodeId node, Port port, const CircuitEntry& e,
                                 std::uint64_t msg_id, Cycle now) {
  TelemetryEvent ev =
      circuit_event(TelemetryEvent::Kind::Bind, now, node, port, e);
  ev.msg = msg_id;
  record(node, ev);
  if (next_) next_->on_circuit_bound(node, port, e, msg_id, now);
}

void Telemetry::on_circuit_released(NodeId node, Port port,
                                    const CircuitEntry& e, std::uint64_t msg_id,
                                    Cycle now) {
  // msg_id == 0 is an identity-keyed tear-down; otherwise the bound reply's
  // tail flit is clearing the B bit after riding the circuit.
  TelemetryEvent ev = circuit_event(msg_id == 0
                                        ? TelemetryEvent::Kind::Teardown
                                        : TelemetryEvent::Kind::Use,
                                    now, node, port, e);
  ev.msg = msg_id;
  record(node, ev);
  if (next_) next_->on_circuit_released(node, port, e, msg_id, now);
}

void Telemetry::on_circuit_undone(NodeId node, Port port, const CircuitEntry& e,
                                  std::uint64_t owner_req, Cycle now) {
  record(node, circuit_event(TelemetryEvent::Kind::Undo, now, node, port, e));
  if (next_) next_->on_circuit_undone(node, port, e, owner_req, now);
}

void Telemetry::on_network_cycle(Cycle now) {
  flush(now);
  if (sample_every_ > 0) take_sample(now);
  if (next_) next_->on_network_cycle(now);
}

void Telemetry::flush(Cycle now) {
  (void)now;
  for (auto& buf : per_node_) {
    for (const TelemetryEvent& ev : buf) {
      switch (ev.kind) {
        case TelemetryEvent::Kind::Inject: ++win_.injected; break;
        case TelemetryEvent::Kind::Deliver:
          ++win_.delivered;
          if (ev.cat == ReplyCategory::Scrounged) ++win_.scrounged;
          break;
        case TelemetryEvent::Kind::Reserve: ++win_.reserved; break;
        case TelemetryEvent::Kind::UndoLaunch: ++win_.undone; break;
        default: break;
      }
      events_.push_back(ev);
    }
    buf.clear();
  }
}

void Telemetry::take_sample(Cycle now) {
  if ((now + 1) % sample_every_ != 0) return;
  TelemetrySample s = win_;
  s.cycle = now;
  s.window = sample_every_;
  // End-of-window occupancy scans. Single-threaded by contract (serial tick
  // or the sharded barrier completion), and every quantity is a pure
  // function of the fabric state, so the series is shard-independent.
  const int n = net_->config().num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    const Router& r = net_->router(i);
    s.buffered_flits += static_cast<std::uint64_t>(r.buffered_flits());
    s.live_circuits +=
        static_cast<std::uint64_t>(r.circuits().live_circuits(now));
  }
  samples_.push_back(s);
  win_ = TelemetrySample{};
}

void Telemetry::note_stats_reset(Cycle now) {
  // Called between run_cycles blocks: workers are parked and the per-node
  // buffers were drained by the last cycle's flush, so appending directly
  // keeps the marker ordered after everything that preceded the reset.
  TelemetryEvent ev;
  ev.kind = TelemetryEvent::Kind::StatsReset;
  ev.cycle = now;
  events_.push_back(ev);
}

namespace {

void save_event(StateWriter& w, const TelemetryEvent& ev) {
  w.u8(static_cast<std::uint8_t>(ev.kind));
  w.u64(ev.cycle);
  w.i64(ev.node);
  w.i64(ev.port);
  w.i64(ev.vc);
  w.i64(ev.dest);
  w.u64(ev.addr);
  w.u64(ev.owner);
  w.u64(ev.msg);
  w.u8(static_cast<std::uint8_t>(ev.cat));
  w.i64(ev.mtype);
}

bool load_event(StateReader& r, TelemetryEvent* ev) {
  std::uint8_t kind, cat;
  std::int64_t node, port, vc, dest, mtype;
  if (!(r.u8(&kind) && r.u64(&ev->cycle) && r.i64(&node) && r.i64(&port) &&
        r.i64(&vc) && r.i64(&dest) && r.u64(&ev->addr) && r.u64(&ev->owner) &&
        r.u64(&ev->msg) && r.u8(&cat) && r.i64(&mtype)))
    return false;
  if (kind >= TelemetryEvent::kNumKinds)
    return r.fail("telemetry event kind out of range");
  if (cat >= kNumReplyCategories)
    return r.fail("telemetry reply category out of range");
  ev->kind = static_cast<TelemetryEvent::Kind>(kind);
  ev->node = static_cast<NodeId>(node);
  ev->port = static_cast<std::int16_t>(port);
  ev->vc = static_cast<std::int16_t>(vc);
  ev->dest = static_cast<NodeId>(dest);
  ev->cat = static_cast<ReplyCategory>(cat);
  ev->mtype = static_cast<std::int16_t>(mtype);
  return true;
}

void save_sample(StateWriter& w, const TelemetrySample& s) {
  w.u64(s.cycle);
  w.u64(s.window);
  w.u64(s.injected);
  w.u64(s.delivered);
  w.u64(s.reserved);
  w.u64(s.undone);
  w.u64(s.scrounged);
  w.u64(s.buffered_flits);
  w.u64(s.live_circuits);
}

bool load_sample(StateReader& r, TelemetrySample* s) {
  return r.u64(&s->cycle) && r.u64(&s->window) && r.u64(&s->injected) &&
         r.u64(&s->delivered) && r.u64(&s->reserved) && r.u64(&s->undone) &&
         r.u64(&s->scrounged) && r.u64(&s->buffered_flits) &&
         r.u64(&s->live_circuits);
}

}  // namespace

void Telemetry::save(StateWriter& w) const {
  // Cycle boundary contract: flush() already drained the per-node staging
  // buffers, so the global stream is the whole trace.
  w.u64(events_.size());
  for (const TelemetryEvent& ev : events_) save_event(w, ev);
  w.u64(samples_.size());
  for (const TelemetrySample& s : samples_) save_sample(w, s);
  save_sample(w, win_);
}

bool Telemetry::load(StateReader& r) {
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  events_.clear();
  events_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    TelemetryEvent ev;
    if (!load_event(r, &ev)) return false;
    events_.push_back(ev);
  }
  if (!r.u64(&n)) return false;
  samples_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    TelemetrySample s;
    if (!load_sample(r, &s)) return false;
    samples_.push_back(s);
  }
  if (!load_sample(r, &win_)) return false;
  for (auto& buf : per_node_) buf.clear();
  written_ = false;
  return true;
}

bool Telemetry::write() {
  std::string err;
  if (!write_telemetry_file(*this, path_, &err)) {
    std::fprintf(stderr, "rc telemetry: %s\n", err.c_str());
    return false;
  }
  written_ = true;
  return true;
}

// ---- trace files ----

namespace {

bool kind_of(const std::string& name, TelemetryEvent::Kind* out) {
  for (int k = 0; k < TelemetryEvent::kNumKinds; ++k) {
    const auto kk = static_cast<TelemetryEvent::Kind>(k);
    if (name == to_string(kk)) {
      *out = kk;
      return true;
    }
  }
  return false;
}

bool category_of(const std::string& name, ReplyCategory* out) {
  for (int c = 0; c < kNumReplyCategories; ++c) {
    const auto cc = static_cast<ReplyCategory>(c);
    if (name == to_string(cc)) {
      *out = cc;
      return true;
    }
  }
  return false;
}

bool msg_type_of(const std::string& name, std::int16_t* out) {
  for (int t = 0; t < kNumMsgTypes; ++t) {
    if (name == to_string(static_cast<MsgType>(t))) {
      *out = static_cast<std::int16_t>(t);
      return true;
    }
  }
  return false;
}

}  // namespace

bool load_trace(const std::string& path, std::vector<TelemetryEvent>* events,
                std::vector<TelemetrySample>* samples, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err) *err = "cannot open trace '" + path + "'";
    return false;
  }
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    std::string jerr;
    const std::optional<Json> j = parse_json(line, &jerr);
    if (!j || j->type != Json::Type::Obj) {
      // A truncated or corrupt trace must not summarize as a whole one.
      if (err)
        *err = path + ":" + std::to_string(line_no) +
               ": not a JSON object" + (j ? "" : " (" + jerr + ")");
      return false;
    }
    auto num = [&]<typename T>(const char* key, T* out) {
      if (const Json* v = j->find(key); v && v->type == Json::Type::Int)
        *out = static_cast<T>(v->i);
    };
    auto str = [&](const char* key) -> std::string {
      const Json* v = j->find(key);
      return v && v->type == Json::Type::Str ? v->s : std::string();
    };
    const std::string e = str("e");
    if (e == "header") continue;
    if (e == "sample") {
      TelemetrySample smp;
      num("c", &smp.cycle);
      num("w", &smp.window);
      num("inj", &smp.injected);
      num("dlv", &smp.delivered);
      num("res", &smp.reserved);
      num("undo", &smp.undone);
      num("scr", &smp.scrounged);
      num("buf", &smp.buffered_flits);
      num("circ", &smp.live_circuits);
      if (samples) samples->push_back(smp);
      continue;
    }
    TelemetryEvent ev;
    if (!kind_of(e, &ev.kind)) continue;  // future schema additions
    num("c", &ev.cycle);
    num("n", &ev.node);
    num("p", &ev.port);
    num("vc", &ev.vc);
    num("d", &ev.dest);
    num("a", &ev.addr);
    num("o", &ev.owner);
    num("m", &ev.msg);
    category_of(str("cat"), &ev.cat);
    msg_type_of(str("t"), &ev.mtype);
    if (events) events->push_back(ev);
  }
  return true;
}

std::uint64_t TraceSummary::classified_replies() const {
  std::uint64_t total = 0;
  for (int c = 0; c < kNumReplyCategories; ++c)
    if (reply_counted(static_cast<ReplyCategory>(c))) total += cat_counts[c];
  return total;
}

double TraceSummary::cat_fraction(ReplyCategory c) const {
  const std::uint64_t total = classified_replies();
  return total ? static_cast<double>(cat_counts[static_cast<int>(c)]) /
                     static_cast<double>(total)
               : 0.0;
}

double TraceSummary::undo_ratio() const {
  const std::uint64_t res = kind(TelemetryEvent::Kind::Reserve);
  if (res == 0) return 0.0;
  const std::uint64_t dead = kind(TelemetryEvent::Kind::Undo) +
                             kind(TelemetryEvent::Kind::Teardown) +
                             kind(TelemetryEvent::Kind::Reclaim);
  return static_cast<double>(dead) / static_cast<double>(res);
}

TraceSummary summarize_events(const std::vector<TelemetryEvent>& events,
                              const std::vector<TelemetrySample>& samples,
                              bool include_warmup) {
  TraceSummary out;
  std::size_t begin = 0;
  Cycle start_cycle = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != TelemetryEvent::Kind::StatsReset) continue;
    ++out.resets;
    if (!include_warmup) {
      begin = i + 1;
      start_cycle = events[i].cycle;
    }
  }

  // (node, port, owner) identifies one reservation instance; `owner` alone
  // links the building request's reservations along the path to the bind at
  // whichever router first sees the reply's head flit.
  std::map<std::tuple<NodeId, int, std::uint64_t>, Cycle> open;
  std::map<std::uint64_t, Cycle> first_reserve;
  std::set<std::uint64_t> bound;
  bool have_cycle = false;
  auto close = [&open](const TelemetryEvent& ev, Accumulator& acc) {
    const auto it =
        open.find({ev.node, ev.port, ev.owner});
    if (it == open.end()) return;  // reserved before the trace window
    acc.add(static_cast<double>(ev.cycle - it->second));
    open.erase(it);
  };

  for (std::size_t i = begin; i < events.size(); ++i) {
    const TelemetryEvent& ev = events[i];
    ++out.events;
    ++out.kind_counts[static_cast<int>(ev.kind)];
    if (!have_cycle) {
      out.first_cycle = ev.cycle;
      have_cycle = true;
    }
    out.last_cycle = ev.cycle;
    switch (ev.kind) {
      case TelemetryEvent::Kind::Deliver:
        ++out.cat_counts[static_cast<int>(ev.cat)];
        if (ev.mtype >= 0 && ev.mtype < kNumMsgTypes) {
          out.have_types = true;
          ++out.type_delivered[ev.mtype];
          if (ev.cat == ReplyCategory::Used ||
              ev.cat == ReplyCategory::Scrounged)
            ++out.type_on_circuit[ev.mtype];
        }
        break;
      case TelemetryEvent::Kind::Reserve:
        open[{ev.node, ev.port, ev.owner}] = ev.cycle;
        first_reserve.emplace(ev.owner, ev.cycle);
        break;
      case TelemetryEvent::Kind::Bind:
        if (bound.insert(ev.owner).second) {
          const auto it = first_reserve.find(ev.owner);
          if (it != first_reserve.end())
            out.time_to_first_bind.add(
                static_cast<double>(ev.cycle - it->second));
        }
        break;
      case TelemetryEvent::Kind::Use: close(ev, out.lifetime_used); break;
      case TelemetryEvent::Kind::Undo: close(ev, out.lifetime_undone); break;
      case TelemetryEvent::Kind::Teardown:
        close(ev, out.lifetime_torndown);
        break;
      case TelemetryEvent::Kind::Reclaim:
        close(ev, out.lifetime_reclaimed);
        break;
      default:
        break;
    }
  }
  out.leaked = static_cast<std::uint64_t>(open.size());

  for (const TelemetrySample& s : samples) {
    if (!include_warmup && s.cycle < start_cycle) continue;
    ++out.samples;
    out.live_circuits.add(static_cast<double>(s.live_circuits));
    out.buffered_flits.add(static_cast<double>(s.buffered_flits));
  }
  return out;
}

TraceSummary summarize_trace(const std::string& path, bool include_warmup) {
  std::vector<TelemetryEvent> events;
  std::vector<TelemetrySample> samples;
  std::string err;
  if (!load_trace(path, &events, &samples, &err)) fatal(err);
  return summarize_events(events, samples, include_warmup);
}

std::size_t write_chrome_trace(const std::vector<TelemetryEvent>& events,
                               bool include_warmup, std::ostream& os) {
  std::size_t begin = 0;
  if (!include_warmup)
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i].kind == TelemetryEvent::Kind::StatsReset) begin = i + 1;

  std::map<std::uint64_t, const TelemetryEvent*> open;  // id -> latest Inject
  std::size_t slices = 0;
  os << "[";
  for (std::size_t i = begin; i < events.size(); ++i) {
    const TelemetryEvent& ev = events[i];
    if (ev.kind == TelemetryEvent::Kind::Inject) {
      open[ev.msg] = &ev;
      continue;
    }
    if (ev.kind != TelemetryEvent::Kind::Deliver) continue;
    const auto it = open.find(ev.msg);
    if (it == open.end()) continue;  // injected before the trace window
    const TelemetryEvent& inj = *it->second;
    open.erase(it);

    const bool typed = ev.mtype >= 0 && ev.mtype < kNumMsgTypes;
    const auto type = static_cast<MsgType>(ev.mtype);
    os << (slices++ ? ",\n" : "\n") << R"({"name":")"
       << (typed ? to_string(type) : to_string(ev.cat))
       << R"(","ph":"X","ts":)" << inj.cycle << R"(,"dur":)"
       << (ev.cycle > inj.cycle ? ev.cycle - inj.cycle : 1) << R"(,"pid":)"
       << (typed && vnet_of(type) == VNet::Reply ? 1 : 0) << R"(,"tid":)"
       << inj.node << R"(,"args":{"id":)" << ev.msg << R"(,"dest":)"
       << ev.node << R"(,"cat":")" << to_string(ev.cat) << R"("}})";
  }
  os << "\n]\n";
  return slices;
}

}  // namespace rc
