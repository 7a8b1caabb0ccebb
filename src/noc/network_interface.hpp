// Network interface: packetisation, VC selection, circuit origin tracking.
//
// The NI owns the paper's per-node circuit bookkeeping (§4.1: "Information
// of the circuit is also stored in the network interface where the circuit
// starts"):
//  * when a circuit-building request is delivered here, an origin record is
//    created (marked failed when the reservation failed en route);
//  * the reply consults that record at injection: ride the circuit within
//    its departure window, or undo it (§4.4/§4.7) and go packet-switched;
//  * circuit-less replies may scrounge another message's circuit (§4.5);
//  * the L2 is told when its data reply departs on a complete circuit so it
//    can elide the L1_DATA_ACK (§4.6).
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/pipe.hpp"
#include "common/ring.hpp"
#include "common/schedule.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"
#include "noc/routing.hpp"

namespace rc {

class MessagePool;
class NocObserver;
class Topology;

class NetworkInterface : public Ticker {
 public:
  /// `pool` pins message ownership while flits (which carry raw pointers)
  /// are in the fabric: pinned at head-flit injection here, released at
  /// tail-flit ejection at the destination NI.
  NetworkInterface(NodeId id, const NocConfig& cfg, const Topology* topo,
                   StatSet* stats, MessagePool* pool);

  /// Wire the four local pipes: flits we inject, credits coming back for the
  /// router's local input buffers, flits ejected to us, and the credit wire
  /// we use to send circuit undo records into the router.
  void wire(Pipe<Flit>* inject, Pipe<Credit>* inject_credits,
            Pipe<Flit>* eject, Pipe<Credit>* undo_out);

  void set_deliver(std::function<void(const MsgPtr&)> cb) {
    deliver_ = std::move(cb);
  }
  /// Called when a reply's head flit is injected; `on_circuit` tells the
  /// local L2 whether the §4.6 ACK elision applies.
  void set_reply_injected(std::function<void(const MsgPtr&, bool)> cb) {
    reply_injected_ = std::move(cb);
  }

  /// Enqueue a message for injection (called by the local controllers).
  void send(const MsgPtr& msg, Cycle now);

  /// Tear down the circuit reserved for (dest, addr) before use (§4.4):
  /// clears the origin record and launches the credit-carried undo.
  /// `expect_reply` keeps a tombstone so the late reply is counted as
  /// "undone" (the L2-miss knob); the forward-to-owner case passes false
  /// because no reply will ever leave this node. Returns true when a built
  /// circuit existed.
  bool undo_circuit(NodeId dest, Addr addr, Cycle now, bool expect_reply);

  void tick(Cycle now);
  /// Earliest cycle with pending work: queued/streaming packets need every
  /// cycle (including replies holding for a timed departure window);
  /// otherwise the next ejected flit or returning credit.
  Cycle next_work(Cycle now) const {
    if (pending() > 0) return now;
    Cycle w = kNeverCycle;
    if (eject_) w = std::min(w, eject_->next_ready());
    if (inject_credits_) w = std::min(w, inject_credits_->next_ready());
    return w;
  }

  /// Attach a fabric observer (message injection/delivery, undo launches).
  void set_observer(NocObserver* obs) { obs_ = obs; }

  NodeId node() const { return id_; }
  /// Messages queued or mid-injection at this NI.
  std::size_t pending() const {
    return req_q_.size() + rep_count_ + (stream_[0].active() ? 1 : 0) +
           (stream_[1].active() ? 1 : 0);
  }

  /// Snapshot save/load: injection queues (in arrival order), streams,
  /// outstanding-flit counters and the origin table. Where each queued
  /// reply waits (held heap, parked set, key wait lists) is NOT saved:
  /// restore puts every reply back in the probe set, which is always safe —
  /// a wait only skips probes that would fail without side effects, so the
  /// next scan re-probes and reproduces the same outcomes.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  enum class OriginStatus : std::uint8_t { Built, Failed, Undone };
  struct Origin {
    OriginStatus status = OriginStatus::Built;
    bool partial = false;  ///< fragmented: not every router reserved
    Cycle depart_min = 0;
    Cycle depart_max = kNeverCycle;
    /// Scroungers selected but whose tail flit is not yet injected. A
    /// tear-down launched while riders are mid-injection could overtake
    /// them (it travels just as fast), so it is deferred instead.
    int riders = 0;
    std::uint64_t req_id = 0;  ///< id of the request that built this circuit
    /// Tear-downs waiting for riders to drain (undo records must trail any
    /// in-flight rider). A same-identity request that re-builds a circuit
    /// while one is already recorded also queues the duplicate instance
    /// here.
    std::vector<std::uint64_t> deferred_undo_owners;
    bool undo_expect_reply = false;
    bool undo_deferred() const { return !deferred_undo_owners.empty(); }
  };
  using OriginKey = std::pair<NodeId, Addr>;
  struct Stream {  // one packet being injected, per VN
    MsgPtr msg;
    int next_seq = 0;
    int vc = 0;
    bool on_circuit = false;
    bool active() const { return msg != nullptr; }
  };
  /// Outcome of one reply injection probe. Held and VcBlocked are the
  /// memoizable failures: repeating the probe reproduces them, without side
  /// effects, until the reply's origin key mutates or (Held) the departure
  /// slot opens or (VcBlocked) a reply VC frees.
  enum class Probe : std::uint8_t { Ok, Held, VcBlocked, Busy };

  void handle_request_delivered(const MsgPtr& msg, Cycle now);
  void finish_delivery(const MsgPtr& msg, Cycle now);
  bool try_start_packet(VNet vn, Cycle now);
  /// Whether (and how) a queued reply could start injecting now; `*hold`
  /// is the departure slot of a Held result. May mutate origin state
  /// (window-miss undo, consuming a failed or undone origin, scrounging).
  Probe probe_reply(const MsgPtr& msg, Cycle now, int* vc, bool* on_circuit,
                    Cycle* hold);
  bool pick_free_vc(VNet vn, bool circuit_class, int* vc) const;
  void start_stream(VNet vn, MsgPtr msg, int vc, bool on_circuit);
  void inject_flit(Stream& s, Cycle now);
  void launch_undo(NodeId dest, Addr addr, std::uint64_t owner, Cycle now);
  void classify_delivered(const MsgPtr& msg);

  NodeId id_;
  NocConfig cfg_;
  const Topology* topo_;
  StatSet* stats_;
  MessagePool* pool_;
  LatencyModel lat_;

  Pipe<Flit>* inject_ = nullptr;
  Pipe<Credit>* inject_credits_ = nullptr;
  Pipe<Flit>* eject_ = nullptr;
  Pipe<Credit>* undo_out_ = nullptr;

  std::function<void(const MsgPtr&)> deliver_;
  std::function<void(const MsgPtr&, bool)> reply_injected_;
  NocObserver* obs_ = nullptr;

  /// Request injection queue: an inline ring, so the steady-state
  /// enqueue/dequeue performs no heap allocation.
  InlineRing<MsgPtr, 8> req_q_;
  Stream stream_[kNumVNets];
  int rr_vn_ = 0;  ///< round-robin over VN streams for the 1 flit/cycle link

  // ---- reply queue (DESIGN.md §14) ----
  // Every queued reply carries an arrival sequence number and lives in the
  // structure matching its last probe result:
  //  * probe set (rep_probe_ bit): never probed or last result Busy —
  //    probed on every scan;
  //  * held heap (rep_held_): Held until a slot cycle — moved to the probe
  //    set when the slot opens;
  //  * parked set (rep_park_ bit): VcBlocked — visited only by scans that
  //    see a free non-circuit reply VC or a possible scrounge.
  // A held or parked reply whose probe consulted its origin key also sits
  // on that key's wait list; every origin mutation (touch_origin) moves
  // the key's waiters back to the probe set. A scan walks the probe set
  // (plus the parked set) in arrival order; first success wins.
  //
  // Storage is flat: replies sit in a power-of-two ring indexed by
  // seq & mask covering the live sequence window [rep_lo_, rep_hi_), the
  // two sets are bitmaps over the same ring, and wait lists are chains of
  // ring slots (linked by seq) hanging off a bucket array hashed by key;
  // a touch wakes only the chain members whose key matches.
  static constexpr std::uint64_t kNoSeq = ~0ull;
  enum class RState : std::uint8_t { Probe, Held, Parked };
  struct RSlot {
    MsgPtr msg;  ///< null: no queued reply has this slot's seq
    Cycle hold = 0;
    std::uint64_t prev = kNoSeq, next = kNoSeq;  ///< key wait-list links
    RState state = RState::Probe;
    bool waiting = false;  ///< linked on its origin key's wait chain
  };
  std::vector<RSlot> rep_;
  std::vector<std::uint64_t> rep_probe_, rep_park_;
  std::uint64_t rep_lo_ = 0, rep_hi_ = 0;
  std::size_t rep_count_ = 0;
  /// Min-heap of (slot cycle, seq); entries no longer held are skipped.
  std::vector<std::pair<Cycle, std::uint64_t>> rep_held_;
  /// Wait-chain heads, one bucket per ring slot (rebuilt when it grows).
  std::vector<std::uint64_t> wait_heads_;

  RSlot& rslot(std::uint64_t seq) { return rep_[seq & (rep_.size() - 1)]; }
  void set_bit(std::vector<std::uint64_t>& bits, std::uint64_t seq, bool on) {
    const std::uint64_t i = seq & (rep_.size() - 1);
    if (on)
      bits[i >> 6] |= 1ull << (i & 63);
    else
      bits[i >> 6] &= ~(1ull << (i & 63));
  }
  void push_reply(MsgPtr msg);
  /// File a reply (already detached) in the probe set, held heap or parked
  /// set according to its last probe result.
  void file_reply(std::uint64_t seq, Probe p, Cycle hold);
  /// Take a reply out of whatever set or wait list it is in.
  void detach_reply(std::uint64_t seq);
  void grow_replies();
  std::uint64_t& wait_head(NodeId dest, Addr addr);
  void link_waiter(std::uint64_t seq);
  void unlink_waiter(std::uint64_t seq);
  /// The origin for (dest, addr) mutated: every reply waiting on it goes
  /// back to the probe set.
  void touch_origin(NodeId dest, Addr addr);
  void erase_origin(std::map<OriginKey, Origin>::iterator it);

  /// Outstanding flits per (vn, vc) in the router's local input buffer;
  /// a VC accepts a new packet only when it has fully drained.
  std::array<int, kNumVNets * kMaxVcsPerVn> outstanding_{};
  int out_idx(int vn, int vc) const { return vn * kMaxVcsPerVn + vc; }

  std::map<OriginKey, Origin> origins_;
};

}  // namespace rc
