// Private L1 cache controller (MESI requester side).
//
// Models the paper's per-tile private L1 (32KB, 4-way, 2-cycle hit, Table 2)
// attached to an in-order blocking core: a single outstanding demand miss.
// Generates GetS/GetX/WbData/L1DataAck/L1InvAck/L1ToL1 traffic (Table 3).
#pragma once

#include <functional>
#include <map>

#include "coherence/address_map.hpp"
#include "coherence/cache_array.hpp"
#include "common/config.hpp"
#include "common/schedule.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"

namespace rc {

class Network;

enum class L1State : std::uint8_t { I, S, E, M };

class L1Cache : public Ticker {
 public:
  L1Cache(NodeId node, const CacheConfig& cfg, Network* net,
          const AddressMap* amap, StatSet* stats);

  /// Core-side access. Returns false when the (single) MSHR is busy; the
  /// blocking core only calls with a free MSHR. On completion the callback
  /// fires with the current cycle.
  bool access(Addr addr, bool is_write, Cycle now);
  void set_complete(std::function<void(Cycle)> cb) { complete_ = std::move(cb); }
  bool mshr_busy() const { return mshr_.active; }

  /// Network-side message delivery.
  void handle(const MsgPtr& msg, Cycle now);

  void tick(Cycle now);
  /// Earliest cycle with pending work: a hit completing or an outbox send.
  Cycle next_work(Cycle) const {
    Cycle w = hit_done_;
    if (!outbox_.empty() && outbox_.begin()->first < w)
      w = outbox_.begin()->first;
    return w;
  }

  /// Test access.
  L1State state_of(Addr addr);

  /// Functional warm-up: install a line without any traffic. The caller
  /// (System::prewarm) keeps the directory consistent.
  void prewarm_line(Addr addr, L1State st);

  /// Snapshot save/load: cache array, MSHR, message-id counter and outbox.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  struct LineMeta {
    L1State st = L1State::I;
  };
  struct Mshr {
    bool active = false;
    Addr addr = 0;
    bool is_write = false;
    Cycle issued = 0;
  };

  using Line = CacheArray<LineMeta>::Line;
  static_assert(sizeof(Line) == 8, "L1 line payload grew past 8 bytes");

  void fill(Addr addr, bool exclusive, Cycle now);
  /// A free way for `addr`, evicting the set's LRU line when it is full.
  Line* evict_for(Addr addr, Cycle now);
  void send_later(MsgPtr msg, Cycle when);
  MsgPtr make(MsgType t, NodeId dest, Addr addr) const;

  NodeId node_;
  CacheConfig cfg_;
  Network* net_;
  const AddressMap* amap_;
  StatSet* stats_;
  std::function<void(Cycle)> complete_;

  CacheArray<LineMeta> array_;
  Mshr mshr_;
  mutable std::uint64_t next_msg_id_ = 0;
  Cycle hit_done_ = kNeverCycle;  ///< pending hit-completion time
  std::multimap<Cycle, MsgPtr> outbox_;
};

}  // namespace rc
