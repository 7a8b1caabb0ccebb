// Wormhole router with the Reactive Circuits extensions.
//
// Baseline pipeline (Table 4): buffer-write + route computation, VC
// allocation, switch allocation, switch traversal; 1-cycle links; credit
// flow control; round-robin two-phase allocators.
//
// Reactive Circuits additions (Figure 3):
//  * a CircuitManager holding per-input circuit tables,
//  * a Build-Circuit hook run in parallel with a request's VC allocation,
//  * Circuit-Check at the input units: a reply flit that matches a live
//    entry traverses the crossbar the same cycle it arrives (1-cycle hop
//    through the router, 2 with the link),
//  * crossbar priority for circuit flits,
//  * credit-carried circuit tear-down (§4.4).
#pragma once

#include <array>
#include <bit>
#include <optional>
#include <vector>

#include "circuits/circuit_manager.hpp"
#include "common/config.hpp"
#include "common/pipe.hpp"
#include "common/schedule.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/allocator.hpp"
#include "noc/routing.hpp"
#include "noc/virtual_channel.hpp"

namespace rc {

class NocObserver;
class Topology;

class Router : public Ticker {
 public:
  /// Pipes connecting one port to its neighbour (router or NI). The router
  /// pops from `in_data`/`out_credits` and pushes to `out_data`/`in_credits`.
  struct PortWiring {
    Pipe<Flit>* in_data = nullptr;      ///< flits arriving at our input unit
    Pipe<Credit>* in_credits = nullptr; ///< credits we send back upstream
    Pipe<Flit>* out_data = nullptr;     ///< flits we send downstream
    Pipe<Credit>* out_credits = nullptr;///< credits coming back to our output
    bool connected = false;
  };

  Router(NodeId id, const NocConfig& cfg, const Topology* topo, StatSet* stats);

  void wire(Dir d, const PortWiring& w);

  void tick(Cycle now);
  /// Earliest cycle with pending work: resident packets and latched undos
  /// need every cycle; otherwise the next arriving flit or credit (the
  /// wiring sets this router as those pipes' waker, so a sleeping router is
  /// re-armed the moment upstream pushes).
  Cycle next_work(Cycle now) const;

  NodeId id() const { return id_; }
  /// Flits this router pushed through its crossbar (packet + circuit),
  /// for utilization heatmaps.
  std::uint64_t flits_routed() const { return flits_routed_; }

  /// Any packet resident in this router (buffers, latches, retry queues)?
  /// Pure register tests over the packed hot state — next_work calls this
  /// every awake cycle, so it must not touch the port structs.
  bool busy() const {
    return n_waitva_ > 0 || n_active_ > 0 || n_buffered_ > 0 ||
           retry_pending_ != 0 || st_busy_ != 0;
  }
  CircuitManager& circuits() { return circuits_; }
  const CircuitManager& circuits() const { return circuits_; }

  /// Flits resident in this router's input-side storage (VC buffers plus the
  /// circuit retry queues) — the telemetry sampler's VC-occupancy scan. Only
  /// occupied VCs (occ_mask bits) are visited.
  int buffered_flits() const {
    int n = 0;
    for (int p = 0; p < kNumDirs; ++p) {
      n += static_cast<int>(inputs_[p].circ_retry.size());
      for (std::uint64_t m = occ_mask_[p]; m; m &= m - 1)
        n += static_cast<int>(inputs_[p].vcs[std::countr_zero(m)].buf.size());
    }
    return n;
  }

  /// Test access: input VC state at (port, vn, vc-within-vn).
  const InputVC& input_vc(Dir d, VNet vn, int vc) const {
    return inputs_[port_of(d)].vcs[vc_index(vn, vc)];
  }
  const OutputVC& output_vc(Dir d, VNet vn, int vc) const {
    return outputs_[port_of(d)].vcs[vc_index(vn, vc)];
  }
  /// Downstream buffer credits of one output VC (the C field of Figure 2).
  int output_credits(Dir d, VNet vn, int vc) const {
    return credits_[flat_vc(port_of(d), vc_index(vn, vc))];
  }

  int total_vcs() const { return cfg_.vcs_request_vn + cfg_.vcs_reply_vn; }
  int vc_index(VNet vn, int vc) const {
    return vn == VNet::Request ? vc : cfg_.vcs_request_vn + vc;
  }
  /// Index into the packed per-VC arrays: (port, flat VC index) -> flat slot.
  int flat_vc(int port, int vc_idx) const {
    return port * total_vcs() + vc_idx;
  }
  /// Number of VCs in the reply VN dedicated to circuits (0 when disabled,
  /// 2 for Fragmented — one circuit per circuit VC — 1 otherwise).
  int num_circuit_vcs() const;
  bool is_circuit_vc(VNet vn, int vc) const {
    return vn == VNet::Reply && vc < num_circuit_vcs();
  }
  /// Complete circuits remove the buffer of the circuit VC (§4.2).
  bool vc_has_buffer(VNet vn, int vc) const {
    return !(cfg_.circuit.bufferless_circuit_vc() && is_circuit_vc(vn, vc));
  }

  /// Attach a fabric observer (also forwarded to the circuit tables).
  void set_observer(NocObserver* obs);

  // ---- validation accessors (read-only introspection, see sim/validator) --
  /// Wiring of one port; validators walk its pipes with Pipe::for_each.
  const PortWiring& wiring(Dir d) const { return wires_[port_of(d)]; }
  /// Flit sitting in a port's switch-traversal register (its downstream
  /// credit is already consumed), or nullptr.
  const Flit* st_latch_flit(Dir d) const {
    const auto& l = outputs_[port_of(d)].st_latch;
    return l ? &*l : nullptr;
  }
  /// Blocked circuit flits of one input port awaiting retry (their upstream
  /// credits are still held).
  const InlineRing<Flit, kRetryRingInlineFlits>& circuit_retry(Dir d) const {
    return inputs_[port_of(d)].circ_retry;
  }

  /// Snapshot save/load of every register: VC buffers and states, arbiter
  /// pointers, ST latches, credit counters, pending/occupancy bitmaps,
  /// retry skids, the undo latch and the circuit tables. Load runs after
  /// the wiring's pipes are restored (their enqueues set pending bits as
  /// an over-approximation) and overwrites the bitmaps with saved values.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  struct InputPort {
    std::vector<InputVC> vcs;
    RoundRobinArbiter sa_input_arb;  ///< picks one VC of this port per cycle
    /// Fragmented/Ideal: blocked circuit flits awaiting retry.
    InlineRing<Flit, kRetryRingInlineFlits> circ_retry;
  };
  struct OutputPort {
    std::vector<OutputVC> vcs;
    RoundRobinArbiter sa_output_arb;  ///< picks one input port per cycle
    std::vector<RoundRobinArbiter> va_arb;  ///< per output VC, picks input VC
    std::optional<Flit> st_latch;     ///< switch-traversal register
    std::uint64_t busy_mask = 0;      ///< bit v: vcs[v].busy (VA skips them)

    // The bool in OutputVC stays authoritative for test accessors; these
    // keep the bitmap in lockstep.
    void set_busy(int v) {
      vcs[static_cast<std::size_t>(v)].busy = true;
      busy_mask |= std::uint64_t{1} << v;
    }
    void clear_busy(int v) {
      vcs[static_cast<std::size_t>(v)].busy = false;
      busy_mask &= ~(std::uint64_t{1} << v);
    }
  };

  void process_credits(Cycle now);
  void process_arrivals(Cycle now);
  void stage_st(Cycle now);
  void stage_sa(Cycle now);
  void stage_va(Cycle now);

  enum class CircFwd : std::uint8_t { Forwarded, NoEntry, Blocked };
  /// Circuit-check for an arriving (or retried) circuit flit: forward it on
  /// its reserved path, report a missing entry (fall back to the buffered
  /// pipeline), or report a transient block (retry next cycle).
  CircFwd try_circuit_forward(Flit& flit, Port in_port, Cycle now);

  /// Build-Circuit module (§4.1/§4.7), run in parallel with a request head's
  /// VC allocation.
  void maybe_build_circuit(Message* msg, Port req_in, Port req_out,
                           Cycle now);

  /// Apply and forward a credit-carried undo arriving at output side `p`.
  void handle_undo(Port p, const UndoRecord& rec, Cycle now);

  void buffer_flit(const Flit& flit, Port p, Cycle now);
  /// When an input VC is idle and a head flit waits at its buffer front,
  /// route it and enter the VA stage.
  void try_start_packet(Port p, int vc_idx, Cycle now);
  void send_flit(Port out, const Flit& flit, Cycle now);
  void send_credit(Port in_port, VNet vn, int vc, Cycle now);

  NodeId id_;
  // Fast-path occupancy counters: lightly loaded routers skip whole stages.
  int n_waitva_ = 0;
  int n_active_ = 0;
  int n_buffered_ = 0;  ///< flits across all input VC buffers
  // Packed per-port hot state: the per-tick loops (credit drain, arrival
  // drain, ST stage) and next_work probe these single words and bit-scan
  // the set ports instead of pointer-chasing five pipes / five OutputPort
  // structs per cycle (ISSUE 8's cache-linear tick path). The pending masks
  // are set by the pipes themselves on enqueue (Pipe::set_waker with mask,
  // registered in wire()) and cleared by the consuming loop once the ring
  // is observed empty; cross-shard pipes enqueue only in the single-threaded
  // barrier flush, so every write happens on this router's shard.
  std::uint32_t in_pending_ = 0;     ///< bit p: in_data ring may hold flits
  std::uint32_t cr_pending_ = 0;     ///< bit p: out_credits ring may be nonempty
  std::uint32_t retry_pending_ = 0;  ///< bit p: circ_retry nonempty
  std::uint32_t st_busy_ = 0;        ///< bit o: st_latch engaged
  std::uint32_t circ_taken_ = 0;     ///< bit o: crossbar taken by a circuit flit
  std::array<Cycle, kNumDirs> st_ready_{};  ///< ST launch cycle per output
  // Per-input-port VC bitmaps, maintained incrementally at every push/pop
  // and state transition so the allocation loops bit-scan occupied VCs
  // instead of dense kNumDirs x total_vcs sweeps. Kept outside InputPort
  // (which is dominated by its inline retry ring) so the five ports' masks
  // share cache lines when VA/SA sweep all of them each awake cycle.
  std::array<std::uint64_t, kNumDirs> occ_mask_{};     ///< vcs[v].buf non-empty
  std::array<std::uint64_t, kNumDirs> waitva_mask_{};  ///< state == WaitVA
  std::array<std::uint64_t, kNumDirs> active_mask_{};  ///< state == Active
  // Packed per-VC hot state, indexed flat_vc(port, vc_idx). The VA/SA
  // eligibility sweeps and the credit paths probe these every awake cycle;
  // an InputVC itself is dominated by its inline flit ring, so the probed
  // fields live here as struct-of-arrays blocks (a few cache lines per
  // router) and the fat per-VC structs are only touched for actual winners.
  std::vector<Cycle> vc_stage_ready_;      ///< earliest next-stage cycle
  std::vector<std::uint8_t> vc_out_port_;  ///< R: route of the resident packet
  std::vector<std::uint8_t> vc_out_vc_;    ///< O: granted VC within its VN
  std::vector<std::uint8_t> vc_out_vci_;   ///< O as a flat output-VC index
  std::vector<std::int32_t> credits_;      ///< C: per *output* VC credits
  // Static per-flat-VC-index lookups (avoid re-deriving VN / within-VN VC
  // per flit) and the set of output VCs VA may ever allocate (buffered,
  // non-circuit); both fixed at construction.
  std::array<VNet, 64> vcidx_vnet_{};
  std::array<int, 64> vcidx_within_{};
  std::uint64_t va_allocatable_mask_ = 0;
  std::uint64_t flits_routed_ = 0;
  NocConfig cfg_;
  const Topology* topo_;
  StatSet* stats_;
  LatencyModel lat_;
  CircuitManager circuits_;
  NocObserver* obs_ = nullptr;

  std::array<InputPort, kNumDirs> inputs_;
  std::array<OutputPort, kNumDirs> outputs_;
  std::array<PortWiring, kNumDirs> wires_;
  /// Undo records to forward next cycle. The one-cycle latch makes a
  /// tear-down propagate at 2 cycles/hop — strictly slower than the
  /// 2-cycle/hop replies it might chase, so an undo can never overtake a
  /// reply (or scrounger) already riding the circuit.
  std::vector<std::pair<Port, UndoRecord>> undo_latch_;
};

/// Flit count of the reply a circuit-building request reserves for.
int reply_flits_for_request(MsgType req);

/// Lower-bound service estimate (cycles between request delivery and reply
/// hand-off) used by the timed reservation (§4.7); shared with tests.
int estimated_service_cycles(MsgType req, const NocConfig& noc);

}  // namespace rc
