#include "circuits/circuit_manager.hpp"

namespace rc {

CircuitManager::CircuitManager(const CircuitConfig& cfg, StatSet* stats)
    : cfg_(cfg), stats_(stats) {
  int cap = cfg_.mode == CircuitMode::Ideal ? -1 : cfg_.circuits_per_input;
  for (auto& t : tables_) t = CircuitTable(cap);
}

ReserveResult CircuitManager::try_reserve(Cycle now, const ReserveRequest& req,
                                          bool allow_delay) {
  ReserveResult res;
  auto& in_table = tables_[req.in_port];
  CircuitEntry entry;
  entry.src = req.src;
  entry.dest = req.dest;
  entry.addr = req.addr;
  entry.out_port = req.out_port;
  entry.owner_req = req.owner_req;
  entry.slot_start = req.slot_start;
  entry.slot_end = req.slot_end;

  auto fail = [&](ReserveFail why) {
    res.fail = why;
    ++stats_->at(why == ReserveFail::Storage ? Ctr::circ_fail_storage
                                             : Ctr::circ_fail_conflict);
    return res;
  };

  switch (cfg_.mode) {
    case CircuitMode::None:
      res.fail = ReserveFail::Storage;
      return res;

    case CircuitMode::Ideal:
      break;  // no constraints (§4.8)

    case CircuitMode::Fragmented: {
      // A fragmented reservation pre-allocates one of the circuit VCs at
      // the output port (that is what keeps resources busy and motivates
      // the third reply VC, §4.2). No free VC, or a full table, fails it.
      if (in_table.live_count(now) >= in_table.capacity())
        return fail(ReserveFail::Storage);
      if (req.free_circuit_vcs == 0)
        return fail(ReserveFail::OutputConflict);
      for (int v = 0; v < 32; ++v) {
        if (req.free_circuit_vcs & (1u << v)) {
          entry.vc = v;
          res.claimed_vc = v;
          break;
        }
      }
      break;
    }

    case CircuitMode::Complete: {
      if (in_table.live_count(now) >= in_table.capacity())
        return fail(ReserveFail::Storage);

      if (!cfg_.is_timed()) {
        // §4.2: all circuits at one input port must share a source...
        if (in_table.has_other_source(req.src, now))
          return fail(ReserveFail::SameSource);
        // ...and two circuits from different inputs cannot share an output.
        for (int p = 0; p < kNumDirs; ++p) {
          if (p == req.in_port) continue;
          if (tables_[p].conflicting_output(req.out_port, 0, kNeverCycle, now))
            return fail(ReserveFail::OutputConflict);
        }
      } else {
        // §4.7: conflicts are time-slot overlaps. Check the output port
        // across all other inputs, and this input's link occupancy.
        int shift = 0;
        const int budget = allow_delay ? req.max_extra_delay : 0;
        for (int attempt = 0; attempt <= budget; ++attempt) {
          Cycle s = req.slot_start + static_cast<Cycle>(shift);
          Cycle e = req.slot_end;
          if (s > e) return fail(ReserveFail::SlotConflict);
          const CircuitEntry* c = in_table.conflicting_slot(s, e, now);
          for (int p = 0; !c && p < kNumDirs; ++p) {
            if (p == req.in_port) continue;
            c = tables_[p].conflicting_output(req.out_port, s, e, now);
          }
          if (!c) {
            entry.slot_start = s;
            res.extra_delay = shift;
            break;
          }
          // Shifting right only helps when the blocker ends before our slot
          // does; otherwise (or with no delay budget) the reservation fails.
          if (!allow_delay || c->slot_end >= e || c->slot_end < s)
            return fail(ReserveFail::SlotConflict);
          int needed = static_cast<int>(c->slot_end + 1 - req.slot_start);
          if (needed <= shift || needed > budget)
            return fail(ReserveFail::SlotConflict);
          shift = needed;
          res.extra_delay = shift;
        }
        if (res.extra_delay > budget)
          return fail(ReserveFail::SlotConflict);
      }
      break;
    }
  }

  int occupancy = in_table.live_count(now);
  if (!in_table.insert(entry, now))
    return fail(ReserveFail::Storage);

  ++stats_->at(static_cast<Ctr>(static_cast<int>(Ctr::circ_reserve_1st) +
                                (occupancy < 5 ? occupancy : 5)));
  ++stats_->at(Ctr::circ_reservations);
  res.ok = true;
  return res;
}

CircuitEntry* CircuitManager::match(Port in_port, NodeId dest, Addr addr,
                                    std::uint64_t msg_id, bool bind_new,
                                    Cycle now) {
  return tables_[in_port].find(dest, addr, msg_id, bind_new, now);
}

std::optional<CircuitEntry> CircuitManager::release(Port in_port, NodeId dest,
                                                    Addr addr,
                                                    std::uint64_t msg_id,
                                                    Cycle now) {
  return tables_[in_port].release(dest, addr, msg_id, now);
}

std::optional<CircuitEntry> CircuitManager::undo(Port in_port,
                                                 const UndoRecord& rec,
                                                 Cycle now) {
  auto e = tables_[in_port].release_instance(rec.circuit_dest, rec.addr,
                                             rec.owner_req, now);
  if (e) ++stats_->at(Ctr::circ_entries_undone);
  return e;
}

}  // namespace rc
