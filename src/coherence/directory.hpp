// Sparse (limited-pointer) directory for the Protocol::SparseMSI variant.
//
// The full-map MESI protocol keeps its directory state inside the L2 line
// metadata: every cached line has a complete sharer vector for free. The
// sparse variant models the classic decoupled organization instead (the
// shape of Graphite's sparse-directory MSI controller): a separate,
// set-associative entry array that is much smaller than the L2 and tracks
// at most `dir_pointers` sharers per entry. Scarcity is the point — two new
// recall flavours appear that the full-map protocol never generates:
//
//  * directory-entry eviction: a request needs an entry but its set is
//    full, so one victim entry's *entire* tracked population is
//    invalidated (a broadcast recall storm) before the entry is reused;
//  * pointer overflow: a read wants to join a sharer list that already
//    holds `dir_pointers` sharers, so one existing sharer is recalled to
//    free a pointer.
//
// Both turn a predictable two-message GetS hit into a bursty
// REQ -> INV* -> ACK* -> reply chain, which is exactly the reply-traffic
// predictability change the reactive-circuits evaluation wants to probe.
//
// Invariant (checked by the L2 bank, mirrored by test_protocol_model):
// a valid directory entry implies the line is present in the L2 bank, and
// every L1 copy of a line is tracked by the entry (pointers are precise;
// silent L1 evictions of S lines may leave stale pointers, which is safe
// because an Inv to a non-holder is still acknowledged).
#pragma once

#include <functional>

#include "coherence/cache_array.hpp"
#include "coherence/sharer_set.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace rc {

class StateWriter;
class StateReader;

class Directory {
 public:
  struct Entry {
    SharerSet sharers;            ///< S-state holders, <= pointer_limit()
    NodeId owner = kInvalidNode;  ///< M-state holder (at most one)
  };
  using Line = CacheArray<Entry>::Line;
  static_assert(sizeof(Line) == 24, "directory line grew past 24 bytes");

  /// Geometry comes from CacheConfig::dir_{sets,ways,pointers}; the index
  /// stride matches the L2 banks' so one bank's entries use all its sets.
  Directory(const CacheConfig& cfg, int num_banks);

  int pointer_limit() const { return pointers_; }

  Line* find(Addr addr) { return array_.find(addr); }
  void touch(Line& l, Cycle now) { array_.touch(l, now); }
  void release(Line& l) { array_.invalidate(l); }
  Addr tag_of(const Line& l) const { return array_.tag_of(l); }

  /// True when nothing is tracked (the entry can be reclaimed silently).
  bool empty(const Line& l) const {
    return l.meta.owner == kInvalidNode && l.meta.sharers.none();
  }
  /// True when `requestor` cannot join the sharer list without recalling an
  /// existing sharer first (it is not already a member and every pointer is
  /// in use).
  bool needs_pointer_recall(const Line& l, NodeId requestor) const;

  /// addr's entry, installed in a free way of its set when absent; nullptr
  /// when absent and the set is full (the caller must evict a victim()
  /// first). One scan of the set either way.
  Line* find_or_install(Addr addr, Cycle now);

  /// LRU entry in addr's set whose tag satisfies `evictable` (the L2 bank
  /// excludes tags with an outstanding transaction); nullptr when none.
  Line* victim(Addr addr, const std::function<bool(Addr)>& evictable);

  /// Snapshot save/load of the full entry array.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  CacheArray<Entry> array_;
  int pointers_;
  int nodes_;  ///< sharer ids range over [0, nodes_)
};

}  // namespace rc
