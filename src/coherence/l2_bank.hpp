// Shared-L2 bank with integrated directory (MESI home side).
//
// One bank per tile (1MB, 16-way, 7-cycle hit, inclusive, Table 2). Lines
// are blocked while a transaction is outstanding — including while waiting
// for the L1_DATA_ACK — which is exactly the serialization the §4.6 ACK
// elision removes: a data reply that departs on a complete circuit
// acknowledges implicitly and unblocks the line at injection time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>

#include "coherence/address_map.hpp"
#include "coherence/cache_array.hpp"
#include "coherence/directory.hpp"
#include "coherence/sharer_set.hpp"
#include "common/config.hpp"
#include "common/schedule.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"

namespace rc {

class Network;

class L2Bank : public Ticker {
 public:
  L2Bank(NodeId node, const CacheConfig& cfg, const CircuitConfig& circ,
         Network* net, const AddressMap* amap, StatSet* stats,
         Protocol protocol = Protocol::FullMapMESI);

  void handle(const MsgPtr& msg, Cycle now);
  void tick(Cycle now);
  /// Earliest cycle with pending work: stalled-miss retries re-run every
  /// cycle, otherwise the next outbox send.
  Cycle next_work(Cycle now) const {
    if (!retry_.empty()) return now;
    return outbox_.empty() ? kNeverCycle : outbox_.begin()->first;
  }

  /// §4.6 hook from the NI: a reply's head flit was injected. When it is an
  /// L2Reply departing on a complete circuit and NoAck is enabled, the ACK
  /// is elided and the directory line unblocks immediately.
  void on_reply_injected(const MsgPtr& msg, bool on_circuit, Cycle now);

  /// Outstanding transactions (for drain checks).
  std::size_t busy_lines() const { return txns_.size(); }

  /// Test access.
  bool has_line(Addr addr) { return array_.find(addr) != nullptr; }
  NodeId owner_of(Addr addr);

  /// Functional warm-up: install a line (optionally with an L1 owner)
  /// without any traffic. Returns whether the L1 copy is registered in the
  /// directory — under SparseMSI a full directory set refuses, and the
  /// caller must not plant an untracked L1 copy (full-map always accepts).
  bool prewarm_line(Addr addr, NodeId owner);

  /// Snapshot save/load: cache array (directory payload included), sparse
  /// directory (when attached), transaction table, retry queue and outbox.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  // Ordered so nothing pads: 16 + 2 + 1 + 1 bytes, and the LRU stamp fills
  // the last 4 of the line.
  struct LineMeta {
    SharerSet sharers;
    std::int16_t owner = kInvalidNode;  ///< any node id; see the assert below
    bool dirty = false;
    bool fetching = false;  ///< MemRead outstanding, data not yet here
  };
  static_assert(kMaxMeshSide * kMaxMeshSide - 1 <=
                    std::numeric_limits<std::int16_t>::max(),
                "the largest node id must fit the 16-bit L2 owner");
  enum class TxnState : std::uint8_t {
    WaitDataAck,  ///< reply sent, line blocked until L1DataAck (or elision)
    WaitInvAcks,  ///< invalidations outstanding for a GetX
    WaitEvict,    ///< miss stalled behind its victim's invalidations
    WaitMem,      ///< MemRead outstanding
    EvictInv,     ///< this (victim) line is collecting invalidation acks
    // SparseMSI only:
    WaitPtrRoom,  ///< pointer-overflow recall outstanding; redispatch on ack
    DirEvict,     ///< this (victim) directory entry is being recalled
  };
  struct Txn {
    TxnState st{};
    MsgPtr pending;       ///< request being serviced
    int acks_needed = 0;
    Addr parent = 0;      ///< EvictInv: miss address waiting on us
    std::deque<MsgPtr> waiting;  ///< requests queued behind the blocked line
  };
  using Line = CacheArray<LineMeta>::Line;
  // A 1 MB bank holds 16K lines: every byte of the payload costs 16 KB.
  static_assert(sizeof(Line) == 24, "L2 line payload grew past 24 bytes");

  void process_cpu_req(const MsgPtr& msg, Cycle now);
  void process_cpu_req_sparse(const MsgPtr& msg, Cycle now);
  /// SparseMSI: find-or-create the directory entry for msg->addr. May stall
  /// the request behind a directory-entry eviction (DirEvict recall storm)
  /// or a full-of-blocked-tags set (retry next cycle); returns nullptr in
  /// both cases and the caller must simply return.
  Directory::Line* dir_ensure(const MsgPtr& msg, Cycle now);
  int send_dir_invalidations(const Directory::Line& entry, NodeId except,
                             Cycle now);
  void start_miss(const MsgPtr& msg, Cycle now);
  void proceed_miss(Addr addr, const MsgPtr& msg, Cycle now);
  void send_data_reply(const MsgPtr& req, bool exclusive, Cycle now);
  void complete_txn(Addr addr, Cycle now);
  int send_invalidations(const Line& line, NodeId except, Cycle now);
  void send_later(MsgPtr msg, Cycle when);
  MsgPtr make(MsgType t, NodeId dest, Addr addr) const;
  bool try_undo_circuit(const MsgPtr& req, Cycle now, bool expect_reply);

  NodeId node_;
  CacheConfig cfg_;
  CircuitConfig circ_;
  Protocol proto_;
  Network* net_;
  const AddressMap* amap_;
  StatSet* stats_;

  CacheArray<LineMeta> array_;
  std::unique_ptr<Directory> dir_;  ///< SparseMSI only; null for full-map
  mutable std::uint64_t next_msg_id_ = 0;
  std::map<Addr, Txn> txns_;
  std::deque<MsgPtr> retry_;  ///< misses stalled with no evictable victim
  std::multimap<Cycle, MsgPtr> outbox_;
};

}  // namespace rc
