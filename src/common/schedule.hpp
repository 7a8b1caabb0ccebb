// Activity-tracked tick scheduling and the per-shard activity frontier.
//
// Every tickable component (Core, L1Cache, L2Bank, MemoryController,
// Router, NetworkInterface, the same-tile bypass drains and the synthetic
// driver) derives from Ticker and reports, after each tick, the earliest
// cycle at which it has pending work (next_work). Anything that hands work
// to a possibly-sleeping component wakes it: pipes wake their consumer on
// push (Pipe::set_waker), controllers wake themselves when they enqueue
// future sends, and the core is woken by its L1's completion callback.
//
// Components are swept through a ShardSchedule: the engine registers every
// component of a shard once (in the fixed serial tick order), and the
// schedule packs their wake stamps into one contiguous cycle array — the
// struct-of-arrays hot state. A sweep is then a linear scan of that array
// instead of a pointer-chase through scattered component objects, and the
// running minimum of the array is the shard's *activity frontier*: the
// earliest cycle at which anything in the shard can possibly act. A shard
// whose frontier is beyond the current cycle skips the scan entirely, and
// when every shard's frontier is in the future the engine fast-forwards the
// global clock to the minimum frontier in one step (see Engine::run).
//
// Two modes:
//   Activity - tick only components whose wake_at has arrived (default).
//   Verify   - tick everything every cycle (the pre-optimization loop), but
//              assert that the activity bookkeeping would not have missed
//              any pending work; combined with the fact that a skipped tick
//              is a no-op by construction, a clean Verify run proves
//              Activity produces the same simulation as ticking everything.
//              It is the oracle mode, enabled globally with
//              RC_VERIFY_TICKS=1.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rc {

enum class TickMode : std::uint8_t {
  Activity,  ///< skip components with no pending work
  Verify,    ///< tick every component every cycle and assert the activity
             ///< tracking is conservative
};

const char* to_string(TickMode m);

/// Apply the environment override: RC_VERIFY_TICKS=1 forces Verify,
/// otherwise `configured` is used.
TickMode effective_tick_mode(TickMode configured);

/// Base class for components driven by an activity-tracked tick loop.
/// The wake stamp is the earliest cycle the component may have work;
/// kNeverCycle means fully quiescent. Components start awake so cycle 0
/// always ticks.
///
/// The stamp lives inline until the component is registered with a
/// ShardSchedule, which rebinds it into the schedule's contiguous stamp
/// array (ShardSchedule::seal). Waking a bound component also lowers its
/// schedule's activity frontier, so a wake that lands behind an in-progress
/// sweep (or arrives from a cross-shard mailbox flush while the workers are
/// parked) is never lost.
class Ticker {
 public:
  Ticker() = default;
  // Copies carry the stamp value but never the binding: a schedule's stamp
  // slots belong to the exact registered objects.
  Ticker(const Ticker& o) : own_(o.wake_at()) {}
  Ticker& operator=(const Ticker& o) {
    own_ = o.wake_at();
    stamp_ = &own_;
    frontier_ = &own_;
    return *this;
  }

  /// Mark pending work no later than `at` (monotone: only moves earlier).
  void wake(Cycle at) {
    if (at < *stamp_) *stamp_ = at;
    if (at < *frontier_) *frontier_ = at;
  }
  Cycle wake_at() const { return *stamp_; }
  /// Re-arm after a tick; the scheduler calls this with next_work().
  void sleep_until(Cycle at) { *stamp_ = at; }

  /// Move the stamp into schedule-owned storage (preserving its value) and
  /// route future wakes at the schedule's frontier. ShardSchedule::seal only.
  void bind_activity(Cycle* stamp, Cycle* frontier) {
    *stamp = *stamp_;
    stamp_ = stamp;
    frontier_ = frontier;
  }
  /// Restore inline storage (schedule teardown; keeps the current stamp).
  void unbind_activity() {
    own_ = *stamp_;
    stamp_ = &own_;
    frontier_ = &own_;
  }

 private:
  Cycle own_ = 0;
  Cycle* stamp_ = &own_;
  // Unbound tickers point the frontier at their own stamp: wake() already
  // lowered it, so the second store is a no-op and costs no branch.
  Cycle* frontier_ = &own_;
};

/// Tick `c` under the given scheduling mode. The component must expose
/// tick(Cycle) and next_work(Cycle) and derive from Ticker.
template <typename C>
inline void tick_scheduled(C& c, Cycle now, TickMode mode, const char* what) {
  switch (mode) {
    case TickMode::Verify:
      if (c.next_work(now) <= now && c.wake_at() > now)
        fatal(std::string("RC_VERIFY_TICKS: activity scheduler would have "
                          "slept through pending work in a ") +
              what + " at cycle " + std::to_string(now));
      c.tick(now);
      c.sleep_until(c.next_work(now));
      return;
    case TickMode::Activity:
      if (c.wake_at() > now) return;
      c.tick(now);
      c.sleep_until(c.next_work(now));
      return;
  }
}

/// One shard's tick order and activity frontier.
///
/// Build in two phases: add() every component in the shard's serial tick
/// order, then seal() once — sealing allocates the exact-size stamp array
/// and rebinds every Ticker into it, so the array never reallocates under
/// live stamp pointers. sweep(now) then advances the whole shard one cycle.
///
/// The frontier invariant: outside a sweep, frontier() <= the stamp of
/// every registered component that has pending work. It may be lowered at
/// any time by Ticker::wake (same worker during a sweep, or the barrier
/// completion flushing cross-shard mailboxes while workers are parked); it
/// is raised only by sweep itself, which recomputes it as the exact minimum
/// over all stamps.
class ShardSchedule {
 public:
  ShardSchedule() = default;
  // Sealing hands out pointers to stamps_ *and* to frontier_ itself, so a
  // sealed schedule must never change address: owners hold unique_ptrs.
  ShardSchedule(const ShardSchedule&) = delete;
  ShardSchedule& operator=(const ShardSchedule&) = delete;
  ~ShardSchedule() {
    // Components outlive their schedule (each host declares its Engine,
    // which owns the schedules, after the components it drives); hand their
    // stamps back so a schedule-less tick loop keeps working.
    for (Ticker* t : tickers_) t->unbind_activity();
  }

  template <typename C>
  void add(C* c, const char* what) {
    RC_ASSERT(!sealed_, "ShardSchedule::add after seal");
    entries_.push_back(Entry{c, &dispatch<C>, what});
    tickers_.push_back(c);
  }

  /// Allocate and bind the stamp array; call exactly once, after all add()s.
  void seal() {
    RC_ASSERT(!sealed_, "ShardSchedule sealed twice");
    sealed_ = true;
    stamps_.resize(entries_.size());
    frontier_ = kNeverCycle;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      tickers_[i]->bind_activity(&stamps_[i], &frontier_);
      if (stamps_[i] < frontier_) frontier_ = stamps_[i];
    }
  }

  /// Advance the shard one cycle. In Activity mode a shard whose frontier
  /// is still in the future returns immediately — no per-component work at
  /// all; otherwise the stamp array is scanned linearly, due components are
  /// dispatched, and the frontier is recomputed as the minimum over the
  /// post-tick stamps (merged with any wake that targeted an already-swept
  /// slot mid-sweep). Returns the new frontier, i.e. the earliest cycle
  /// this shard needs to run again (<= now means "again next cycle").
  Cycle sweep(Cycle now, TickMode mode) {
    const std::size_t n = entries_.size();
    if (mode != TickMode::Activity) {
      // Verify ticks every component; the frontier stays pinned to the
      // next cycle so fast-forward never engages.
      for (std::size_t i = 0; i < n; ++i)
        entries_[i].fn(entries_[i].obj, now, mode, entries_[i].what);
      frontier_ = now + 1;
      return frontier_;
    }
    if (frontier_ > now) return frontier_;
    // Reset before the scan so wakes fired *during* the sweep (to slots the
    // scan already passed) still pull the result down via Ticker::wake.
    frontier_ = kNeverCycle;
    Cycle next = kNeverCycle;
    for (std::size_t i = 0; i < n; ++i) {
      Cycle s = stamps_[i];
      if (s <= now) {
        entries_[i].fn(entries_[i].obj, now, TickMode::Activity,
                       entries_[i].what);
        s = stamps_[i];
      }
      if (s < next) next = s;
    }
    if (next < frontier_) frontier_ = next;
    return frontier_;
  }

  /// Earliest cycle anything in this shard can act (kNeverCycle = fully
  /// quiescent). Exact after a sweep; lowered in place by wakes.
  Cycle frontier() const { return frontier_; }
  std::size_t size() const { return entries_.size(); }

 private:
  template <typename C>
  static void dispatch(void* p, Cycle now, TickMode mode, const char* what) {
    tick_scheduled(*static_cast<C*>(p), now, mode, what);
  }

  struct Entry {
    void* obj;
    void (*fn)(void*, Cycle, TickMode, const char*);
    const char* what;
  };

  std::vector<Entry> entries_;
  std::vector<Ticker*> tickers_;
  std::vector<Cycle> stamps_;  ///< SoA wake stamps, one per entry
  Cycle frontier_ = 0;
  bool sealed_ = false;
};

}  // namespace rc
