// In-order, single-threaded, IPC-1 core (Table 2) with blocking memory
// accesses (sequential consistency): the core stalls on every L1 access
// until the hierarchy completes it.
#pragma once

#include <memory>

#include "coherence/l1_cache.hpp"
#include "common/schedule.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/workload.hpp"

namespace rc {

class Core : public Ticker {
 public:
  Core(int id, std::unique_ptr<WorkloadGen> gen, L1Cache* l1, StatSet* stats);

  void tick(Cycle now);
  /// A stalled core has nothing to do until its L1 completes the access
  /// (on_complete wakes it); otherwise it retires/issues every cycle.
  Cycle next_work(Cycle now) const { return waiting_ ? kNeverCycle : now; }

  /// Fold the stall cycles accumulated since the access was issued into the
  /// core_stall_cycles counter, up to and including cycle `now`. Called on
  /// completion and at the end of every run_cycles block, so the counter is
  /// exact at every point stats can be observed while stalled ticks stay
  /// skippable no-ops.
  void flush_stalls(Cycle now);

  std::uint64_t retired() const { return retired_; }
  void reset_retired() { retired_ = 0; }
  bool waiting() const { return waiting_; }

  /// Snapshot save/load: workload generator stream plus the issue state.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  void on_complete(Cycle now);

  int id_;
  std::unique_ptr<WorkloadGen> gen_;
  L1Cache* l1_;
  StatSet* stats_;

  MemOp next_op_;
  int gap_left_ = 0;
  bool waiting_ = false;
  Cycle stall_from_ = 0;  ///< issue cycle of the outstanding access
  std::uint64_t retired_ = 0;
};

}  // namespace rc
