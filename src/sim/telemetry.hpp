// Telemetry for the Reactive Circuits fabric (RC_TELEMETRY=path).
//
// Two complementary views of a run, collected by one passive NocObserver:
//
//  * a circuit-lifecycle event trace — reserve -> bind (or undo) -> use /
//    scrounge -> teardown, each event tagged with node, port, VC, message
//    id and cycle — plus message injections/deliveries, so a reservation
//    storm or an undo-credit backlog is visible as it happens instead of
//    only as an end-of-run aggregate;
//  * an optional cycle-sampled time series (RC_SAMPLE_EVERY=N) recording,
//    per window, injection/ejection/reservation/undo/scrounge counts and
//    end-of-window VC occupancy and live-circuit totals.
//
// Determinism contract (mirrors node_stats under RC_SHARDS): hooks fire
// from whichever shard owns the reporting component, so events land in
// per-node buffers that only their owning worker writes; the end-of-cycle
// callback (single-threaded — serial tick or the sharded barrier
// completion) drains those buffers into the global stream in fixed node
// order. The resulting trace is byte-identical for any shard count and any
// tick mode.
//
// The observer *chains*: construction captures the currently attached
// observer (the RC_CHECK Validator, typically) and forwards every hook to
// it, so telemetry and validation compose. Attachment is environment-gated
// like the Validator's; an unattached network pays nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"
#include "noc/observer.hpp"

namespace rc {

class Network;
struct NocConfig;
class StateReader;
class StateWriter;

/// One trace record. Which fields are meaningful depends on `kind`; unused
/// ones keep their defaults (and are omitted from the JSONL line).
struct TelemetryEvent {
  enum class Kind : std::uint8_t {
    Inject,      ///< head flit entered the fabric at its source NI
    Deliver,     ///< tail flit ejected (cat = Fig. 6 category)
    Reserve,     ///< circuit entry written into a router table (§4.1)
    Reclaim,     ///< expired timed entry's slot reused (§4.7)
    Bind,        ///< reply head flit bound an entry (B bit engaged)
    Use,         ///< tail release: the bound reply's tail freed the entry
    Teardown,    ///< identity-keyed release (undo credit cleared the entry)
    Undo,        ///< instance-keyed release (§4.4 undo applied at a table)
    UndoLaunch,  ///< an NI launched a credit-carried tear-down (§4.4)
    StatsReset,  ///< end of warm-up: aggregate statistics were zeroed
  };
  static constexpr int kNumKinds = 10;

  Kind kind{};
  Cycle cycle = 0;
  NodeId node = kInvalidNode;
  std::int16_t port = -1;  ///< router input port of the table (circuit events)
  std::int16_t vc = -1;    ///< output circuit VC of the entry
  NodeId dest = kInvalidNode;  ///< circuit destination / message destination
  Addr addr = 0;
  std::uint64_t owner = 0;  ///< id of the request that built the circuit
  std::uint64_t msg = 0;    ///< message id (injections, deliveries, binds)
  ReplyCategory cat = ReplyCategory::NotReply;  ///< Deliver only
  /// MsgType of the message (Inject/Deliver), or -1 when not recorded.
  /// Opt-in (enable_msg_types / RC_TELEMETRY_TYPES=1) so default traces
  /// stay byte-identical; the protocol-variant runs switch it on to get
  /// per-protocol-class circuit hit rates in the digest.
  std::int16_t mtype = -1;
};

const char* to_string(TelemetryEvent::Kind k);

/// One time-series window (the `window` cycles ending at `cycle`). Counts
/// are events inside the window; occupancy fields are end-of-window scans.
struct TelemetrySample {
  Cycle cycle = 0;
  Cycle window = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reserved = 0;
  std::uint64_t undone = 0;     ///< undo launches
  std::uint64_t scrounged = 0;  ///< scrounged final deliveries
  std::uint64_t buffered_flits = 0;  ///< resident in router input storage
  std::uint64_t live_circuits = 0;   ///< live table entries, fabric-wide
};

class Telemetry final : public NocObserver {
 public:
  /// Construct and attach iff RC_TELEMETRY names an output path (set,
  /// non-empty); returns nullptr otherwise. RC_SAMPLE_EVERY (positive
  /// integer; invalid values exit with status 2) enables the time series.
  static std::unique_ptr<Telemetry> maybe_attach(Network* net);
  static bool enabled_by_env();

  /// Chains onto whatever observer is currently attached to `net` and
  /// replaces it; the destructor restores it. `sample_every` = 0 disables
  /// the time series.
  Telemetry(Network* net, std::string path, Cycle sample_every);
  ~Telemetry() override;

  const std::string& path() const { return path_; }
  Cycle sample_every() const { return sample_every_; }
  /// Tag Inject/Deliver events with their MsgType ("t" field). Also forced
  /// on by RC_TELEMETRY_TYPES=1. Call before the first simulated cycle.
  void enable_msg_types() { emit_msg_types_ = true; }
  bool msg_types_enabled() const { return emit_msg_types_; }
  /// Fabric configuration of the observed network (trace-header labels).
  const NocConfig& noc_config() const;
  const std::vector<TelemetryEvent>& events() const { return events_; }
  const std::vector<TelemetrySample>& samples() const { return samples_; }

  /// Snapshot save/load: the accumulated event stream, the sampled series
  /// and the in-progress window counters. Per-node staging buffers are
  /// empty at every cycle boundary (flush() drains them) and are not
  /// serialized; load() clears them and re-arms write().
  void save(StateWriter& w) const;
  bool load(StateReader& r);

  /// Record a statistics reset (end of warm-up). rc-trace summarizes the
  /// events after the last reset by default, so its numbers line up with
  /// the aggregate counters. Call between run_cycles blocks only.
  void note_stats_reset(Cycle now);

  /// Write the accumulated trace to path(): JSONL, or samples-only CSV when
  /// the path ends in ".csv". Idempotent; the destructor calls it as a
  /// backstop. Returns false (with a stderr diagnostic) on I/O failure.
  bool write();

  // ---- NocObserver ----
  void on_message_injected(NodeId node, const Message& m, Cycle now) override;
  void on_message_delivered(NodeId node, const Message& m, Cycle now) override;
  void on_flit_buffered(NodeId node, Port in_port, const Flit& f,
                        Cycle now) override;
  void on_circuit_forwarded(NodeId node, Port in_port, const Flit& f,
                            Cycle now) override;
  void on_circuit_blocked(NodeId node, Port in_port, const Flit& f,
                          Cycle now) override;
  void on_undo_launched(NodeId node, NodeId circuit_dest, Addr addr,
                        std::uint64_t owner_req, Cycle now) override;
  void on_network_cycle(Cycle now) override;

  // ---- CircuitTableObserver ----
  void on_circuit_inserted(NodeId node, Port port, const CircuitEntry& e,
                           Cycle now) override;
  void on_circuit_reclaimed(NodeId node, Port port, const CircuitEntry& e,
                            Cycle now) override;
  void on_circuit_bound(NodeId node, Port port, const CircuitEntry& e,
                        std::uint64_t msg_id, Cycle now) override;
  void on_circuit_released(NodeId node, Port port, const CircuitEntry& e,
                           std::uint64_t msg_id, Cycle now) override;
  void on_circuit_undone(NodeId node, Port port, const CircuitEntry& e,
                         std::uint64_t owner_req, Cycle now) override;

 private:
  static TelemetryEvent circuit_event(TelemetryEvent::Kind k, Cycle now,
                                      NodeId node, Port port,
                                      const CircuitEntry& e);
  /// Append to the reporting node's buffer (single-writer per node).
  void record(NodeId node, const TelemetryEvent& ev) {
    per_node_[static_cast<std::size_t>(node)].push_back(ev);
  }
  /// Drain per-node buffers into the global stream, in node order. Runs
  /// single-threaded (end of serial tick / barrier completion).
  void flush(Cycle now);
  void take_sample(Cycle now);

  Network* net_;
  NocObserver* next_;  ///< observer displaced by this one (chained, restored)
  std::string path_;
  Cycle sample_every_;
  bool emit_msg_types_ = false;
  bool written_ = false;
  std::vector<std::vector<TelemetryEvent>> per_node_;
  std::vector<TelemetryEvent> events_;
  std::vector<TelemetrySample> samples_;
  TelemetrySample win_;  ///< counts accumulating toward the next sample
};

// ---- trace files (shared by run_config's export and tools/rc-trace) ----

/// Per-run digest of a trace: event/kind/category counts, per-ending-variant
/// circuit lifetimes, undo ratio, time-to-first-bind, sampled occupancy.
struct TraceSummary {
  std::uint64_t events = 0;
  std::uint64_t kind_counts[TelemetryEvent::kNumKinds] = {};
  std::uint64_t cat_counts[kNumReplyCategories] = {};
  Cycle first_cycle = 0;
  Cycle last_cycle = 0;
  std::uint64_t resets = 0;
  /// Reserve -> end-of-entry latency, split by how the entry ended.
  Accumulator lifetime_used;      ///< ended by a tail release (Use)
  Accumulator lifetime_undone;    ///< ended by an instance undo (Undo)
  Accumulator lifetime_torndown;  ///< ended by an identity teardown
  Accumulator lifetime_reclaimed; ///< expired; slot reused by insert()
  std::uint64_t leaked = 0;  ///< reserved but never ended inside the trace
  /// First Reserve of a building request -> first Bind of that request's
  /// circuit, per request.
  Accumulator time_to_first_bind;
  std::uint64_t samples = 0;
  Accumulator live_circuits;
  Accumulator buffered_flits;
  /// Per-protocol-class delivery profile, filled only when the trace tags
  /// Inject/Deliver events with their MsgType ("t" field): how many
  /// messages of each class arrived, and how many of those rode a circuit
  /// (Used or Scrounged). This is the full-map-vs-sparse comparison axis.
  bool have_types = false;
  std::uint64_t type_delivered[kNumMsgTypes] = {};
  std::uint64_t type_on_circuit[kNumMsgTypes] = {};

  std::uint64_t kind(TelemetryEvent::Kind k) const {
    return kind_counts[static_cast<int>(k)];
  }
  /// Replies with a Fig. 6 category (everything except NotReply/ScroungeHop).
  std::uint64_t classified_replies() const;
  double cat_fraction(ReplyCategory c) const;
  /// Fraction of reservations that died without carrying a reply:
  /// (undo + teardown + reclaim) / reserve.
  double undo_ratio() const;
};

/// Parse a trace file produced by Telemetry::write (JSONL). Returns false
/// with a diagnostic in *err on unreadable input; unknown lines are skipped.
bool load_trace(const std::string& path, std::vector<TelemetryEvent>* events,
                std::vector<TelemetrySample>* samples, std::string* err);

/// Digest an event/sample stream. include_warmup=false (the default view)
/// drops everything before the last StatsReset marker, aligning the digest
/// with the post-warmup aggregate counters.
TraceSummary summarize_events(const std::vector<TelemetryEvent>& events,
                              const std::vector<TelemetrySample>& samples,
                              bool include_warmup);

/// load_trace + summarize_events; fatal() on unreadable input.
TraceSummary summarize_trace(const std::string& path, bool include_warmup);

/// Write the event stream as Chrome trace-event JSON (chrome://tracing,
/// Perfetto): one "X" slice per delivered message, from its injection to
/// its delivery, on the source node's track (tid). args carry the message
/// id, the delivering node and the Fig. 6 category; pid is the virtual
/// network when the trace tags messages with their type, else 0. Each
/// Deliver closes the latest unmatched Inject of the same id, because a
/// scrounger's onward leg (§4.5) re-injects the id it arrived with.
/// include_warmup as in summarize_events. Returns the number of slices.
std::size_t write_chrome_trace(const std::vector<TelemetryEvent>& events,
                               bool include_warmup, std::ostream& os);

}  // namespace rc
