// Per-router reservation policy for Reactive Circuits (§4.2, §4.7, §4.8).
//
// The manager owns one CircuitTable per input port and applies the
// mode-dependent admission rules:
//   Fragmented: capacity only (partial circuits are fine, buffers exist).
//   Complete:   capacity; all circuits at an input port share a source;
//               no two circuits from different inputs to the same output.
//   Complete+timed: capacity; slot-overlap checks replace the structural
//               output rule; SlackDelay may shift a slot later.
//   Ideal:      unbounded, always succeeds.
#pragma once

#include <array>
#include <optional>

#include "circuits/circuit_table.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"

namespace rc {

struct ReserveRequest {
  NodeId src = kInvalidNode;   ///< replier (request's destination)
  NodeId dest = kInvalidNode;  ///< requestor (reply's destination)
  Addr addr = 0;
  Port in_port = 0;   ///< port the reply will arrive on
  Port out_port = 0;  ///< port the reply will leave by
  Cycle slot_start = 0;
  Cycle slot_end = kNeverCycle;
  /// SlackDelay: how many further cycles the slot start may be shifted.
  int max_extra_delay = 0;
  /// Fragmented: bitmask of output circuit VCs that are free to claim.
  std::uint32_t free_circuit_vcs = 0;
  std::uint64_t owner_req = 0;  ///< id of the building request
};

enum class ReserveFail : std::uint8_t {
  None,
  Storage,         ///< table full (Table 5's "failed" column)
  SameSource,      ///< complete untimed: input port already serves another src
  OutputConflict,  ///< complete untimed: same output from a different input
  SlotConflict,    ///< timed: overlapping slot on output or input link
};

struct ReserveResult {
  bool ok = false;
  int extra_delay = 0;  ///< committed slot shift (SlackDelay only)
  int claimed_vc = -1;  ///< Fragmented: the output circuit VC claimed
  ReserveFail fail = ReserveFail::None;
};

class CircuitManager {
 public:
  CircuitManager(const CircuitConfig& cfg, StatSet* stats);

  bool enabled() const { return cfg_.uses_circuits(); }

  /// Attempt a reservation under the configured mode's rules. On success the
  /// entry is inserted and Table-5 occupancy statistics are updated.
  ReserveResult try_reserve(Cycle now, const ReserveRequest& req,
                            bool allow_delay);

  /// Live entry a reply arriving on `in_port` should ride, or nullptr.
  /// Binding semantics as CircuitTable::find.
  CircuitEntry* match(Port in_port, NodeId dest, Addr addr,
                      std::uint64_t msg_id, bool bind_new, Cycle now);

  /// Free the entry when the owning tail flit leaves (clears the B bit).
  std::optional<CircuitEntry> release(Port in_port, NodeId dest, Addr addr,
                                      std::uint64_t msg_id, Cycle now);

  /// Apply a credit-carried undo; returns the cleared entry if one matched.
  std::optional<CircuitEntry> undo(Port in_port, const UndoRecord& rec,
                                   Cycle now);

  CircuitTable& table(Port p) { return tables_[p]; }
  const CircuitTable& table(Port p) const { return tables_[p]; }

  /// Live reservations across all input ports (telemetry sampling).
  int live_circuits(Cycle now) const {
    int n = 0;
    for (const auto& t : tables_) n += t.live_count(now);
    return n;
  }

  /// Attach a lifecycle observer to every table, identified as belonging to
  /// router `node` (ports keep their own indices).
  void set_observer(CircuitTableObserver* obs, NodeId node) {
    for (int p = 0; p < kNumDirs; ++p)
      tables_[p].set_observer(obs, node, static_cast<Port>(p));
  }

  /// Snapshot save/load: the per-port tables (counters live in the StatSet).
  void save(StateWriter& w) const {
    for (const auto& t : tables_) t.save(w);
  }
  bool load(StateReader& r) {
    for (auto& t : tables_)
      if (!t.load(r)) return false;
    return true;
  }

 private:
  CircuitConfig cfg_;
  StatSet* stats_;
  std::array<CircuitTable, kNumDirs> tables_;
};

}  // namespace rc
