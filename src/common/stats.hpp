// Lightweight statistics: counters, scalar accumulators, and fixed-bucket
// histograms, each registered once below. Every node owns StatSets of dense
// slots; the System merges them for reporting.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rc {

// The registry: every stat, named once. Each list yields an enum class of
// dense handles and a name table. Ranges indexed by an enum stay contiguous
// and in its order: msg_GetS..msg_L1ToL1 (MsgType), reply_used..
// reply_eligible_nocirc (ReplyCategory, see noc/message.hpp) and
// circ_reserve_1st..6plus (reservation-table occupancy).
#define RC_STAT_COUNTERS(X)                                                  \
  X(buf_write) X(buf_read) X(xbar) X(link_flit) X(va_ops) X(sa_ops)          \
  X(circ_check) X(circ_fwd) X(circ_skid_block) X(circ_build_aborted)         \
  X(circ_reservations) X(circ_entries_undone) X(circ_fail_conflict)          \
  X(circ_fail_storage) X(circ_reserve_1st) X(circ_reserve_2nd)               \
  X(circ_reserve_3rd) X(circ_reserve_4th) X(circ_reserve_5th)                \
  X(circ_reserve_6plus)                                                      \
  X(ni_inject_flit) X(circ_origin_used) X(circ_origin_undone)                \
  X(circ_origin_duplicate) X(scrounge_rides) X(msg_local)                    \
  X(msg_GetS) X(msg_GetX) X(msg_WbData) X(msg_Inv) X(msg_FwdGetS)            \
  X(msg_FwdGetX) X(msg_MemRead) X(msg_MemWb) X(msg_L2Reply)                  \
  X(msg_L1DataAck) X(msg_L2WbAck) X(msg_L1InvAck) X(msg_MemData)             \
  X(msg_MemAck) X(msg_L1ToL1)                                                \
  X(reply_used) X(reply_partial) X(reply_failed) X(reply_undone)             \
  X(reply_scrounged) X(reply_not_eligible) X(reply_eligible_nocirc)          \
  X(l1_read_hit) X(l1_read_miss) X(l1_write_hit) X(l1_write_miss)            \
  X(l1_writebacks) X(l1_silent_evicts) X(l1_wb_acked)                        \
  X(l2_hits) X(l2_misses) X(l2_req_blocked) X(l2_wb_received)                \
  X(l2_wb_to_mem_acked) X(l2_evictions) X(l2_dir_evictions)                  \
  X(l2_dir_evict_recalls) X(l2_dir_stall) X(l2_victim_stall) X(l2_recalls)   \
  X(l2_ptr_recalls) X(l2_fwd_gets) X(l2_fwd_getx) X(l2_invs_sent)            \
  X(l2_invalidation_rounds) X(replies_eliminated)                            \
  X(core_stall_cycles) X(core_mem_ops) X(mem_reads) X(mem_writebacks)

#define RC_STAT_ACCUMULATORS(X)                                              \
  X(q_lat_req) X(q_lat_reply) X(lat_circuit_setup) X(lat_net_req)            \
  X(lat_q_req) X(lat_net_rep_circ) X(lat_net_rep_nocirc) X(lat_q_rep_circ)   \
  X(lat_q_rep_nocirc)

#define RC_STAT_HISTOGRAMS(X) X(hist_req) X(hist_rep_circ) X(hist_rep_nocirc)

#define RC_STAT_ENUM(n) n,
#define RC_STAT_NAME(n) #n,
enum class Ctr : std::uint8_t { RC_STAT_COUNTERS(RC_STAT_ENUM) };
enum class Acc : std::uint8_t { RC_STAT_ACCUMULATORS(RC_STAT_ENUM) };
enum class Hist : std::uint8_t { RC_STAT_HISTOGRAMS(RC_STAT_ENUM) };

inline constexpr const char* kCtrNames[] = {RC_STAT_COUNTERS(RC_STAT_NAME)};
inline constexpr const char* kAccNames[] = {RC_STAT_ACCUMULATORS(RC_STAT_NAME)};
inline constexpr const char* kHistNames[] = {RC_STAT_HISTOGRAMS(RC_STAT_NAME)};
#undef RC_STAT_ENUM
#undef RC_STAT_NAME

/// Registered name of a counter ("l2_hits", ...).
constexpr std::string_view stat_name(Ctr c) {
  return kCtrNames[static_cast<std::size_t>(c)];
}

class StateWriter;
class StateReader;
struct Json;

/// Mean/min/max/stddev accumulator for latency-like samples.
class Accumulator {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    if (n_ == 1) shift_ = v;
    // Second moment about the first sample, not about zero: for samples
    // clustered far from zero (latencies offset by a large epoch, addresses)
    // the naive sum-of-squares form cancels catastrophically in variance().
    const double d = v - shift_;
    sumd_ += d;
    sumd2_ += d * d;
    if (v < min_ || n_ == 1) min_ = v;
    if (v > max_ || n_ == 1) max_ = v;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double stderr_mean() const;
  /// Half-width of the 95% confidence interval of the mean (normal
  /// approximation — the paper quotes the same, §5.5 / [38]).
  double ci95() const { return 1.96 * stderr_mean(); }

  void merge(const Accumulator& o);
  /// Bitwise equality (the shard-determinism tests compare doubles exactly).
  bool operator==(const Accumulator&) const = default;

  void save(StateWriter& w) const;
  bool load(StateReader& r);
  /// [n, sum, min, max, shift, sumd, sumd2] (see StatSet::to_json).
  void write_json(std::string* out) const;
  bool read_json(const Json& j);

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0, min_ = 0, max_ = 0;
  // Shifted second moment: shift_ is the first sample, sumd_ = sum(v-shift_),
  // sumd2_ = sum((v-shift_)^2). merge() rebases the other side's moments onto
  // this shift, so the result depends only on the merge order — which the
  // sharded engine keeps fixed (node order) for bitwise determinism.
  double shift_ = 0, sumd_ = 0, sumd2_ = 0;
};

/// Fixed-bucket histogram with power-of-two-ish bucket edges, cheap enough
/// for per-message latency samples; supports percentile queries.
class Histogram {
 public:
  /// Buckets: [0,1), [1,2), [2,4), [4,8), ... up to 2^30, plus overflow.
  static constexpr int kBuckets = 32;

  void add(double v);
  std::uint64_t count() const { return n_; }
  /// Value below which `fraction` of samples fall (upper bucket edge —
  /// conservative). fraction in [0,1].
  double percentile(double fraction) const;
  const std::uint64_t* buckets() const { return b_; }
  void reset();
  void merge(const Histogram& o);
  bool operator==(const Histogram&) const = default;

  void save(StateWriter& w) const;
  bool load(StateReader& r);
  /// [n, bucket 0, ..., bucket 31] (see StatSet::to_json).
  void write_json(std::string* out) const;
  bool read_json(const Json& j);

 private:
  std::uint64_t b_[kBuckets] = {};
  std::uint64_t n_ = 0;
};

/// One stat kind's dense slots: a value per registered name plus a
/// "touched" flag. Writing through at() touches a slot; only touched slots
/// are listed, merged and saved, so a stat that never fires never appears.
template <class H, class T, const auto& kNames>
class StatSlots {
 public:
  static constexpr std::size_t kSize = std::size(kNames);

  T& at(H h) {
    touched_[static_cast<std::size_t>(h)] = true;
    return value_[static_cast<std::size_t>(h)];
  }
  /// Slot registered as `name`, or kSize when there is none.
  static std::size_t index(std::string_view name) {
    return static_cast<std::size_t>(
        std::find(kNames, kNames + kSize, name) - kNames);
  }
  /// The touched slot registered as `name`, or null if it is untouched.
  const T* find(std::string_view name) const {
    const std::size_t i = index(name);
    RC_ASSERT(i < kSize, "unregistered stat '" + std::string(name) + "'");
    return touched_[i] ? &value_[i] : nullptr;
  }
  /// (name, value) of every touched slot, in byte-wise name order.
  std::vector<std::pair<const char*, T>> list() const {
    std::vector<std::pair<const char*, T>> out;
    for (std::size_t i = 0; i < kSize; ++i)
      if (touched_[i]) out.emplace_back(kNames[i], value_[i]);
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::string_view(a.first) < b.first;
    });
    return out;
  }

  void reset() { value_.fill(T{}); }
  void merge(const StatSlots& o) {
    for (std::size_t i = 0; i < kSize; ++i) {
      if (!o.touched_[i]) continue;
      touched_[i] = true;
      if constexpr (std::is_integral_v<T>)
        value_[i] += o.value_[i];
      else
        value_[i].merge(o.value_[i]);
    }
  }
  bool operator==(const StatSlots&) const = default;

 private:
  std::array<T, kSize> value_{};
  std::array<bool, kSize> touched_{};
};

/// One node's (or a merged) stats, one slot per registered stat. Writers use
/// handles (`++stats->at(Ctr::l2_hits)`); readers use names.
class StatSet {
 public:
  std::uint64_t& at(Ctr c) { return ctrs_.at(c); }
  Accumulator& at(Acc a) { return accs_.at(a); }
  Histogram& at(Hist h) { return hists_.at(h); }

  // By-name reads; a name missing from the registry is a programming error.
  std::uint64_t counter_value(std::string_view name) const {
    const std::uint64_t* v = ctrs_.find(name);
    return v ? *v : 0;
  }
  const Accumulator* find_acc(std::string_view name) const {
    return accs_.find(name);
  }
  const Histogram* find_hist(std::string_view name) const {
    return hists_.find(name);
  }

  /// Touched stats as (name, value) pairs, in byte-wise name order.
  auto counters() const { return ctrs_.list(); }
  auto accumulators() const { return accs_.list(); }
  auto histograms() const { return hists_.list(); }

  /// Zeroes every value; touched slots stay touched.
  void reset();
  /// Adds `o` slot by slot and touches what `o` touched.
  void merge(const StatSet& o);
  bool operator==(const StatSet&) const = default;

  /// Snapshot save/load: per kind, a count, then (name, value) for the
  /// touched slots in name order. Load replaces the whole set and rejects
  /// unknown or repeated names.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

  /// {"counters":{..},"accumulators":{..},"histograms":{..}}: touched stats
  /// by name, doubles at 17 digits, so from_json (which rejects unknown or
  /// repeated names) restores the set bitwise.
  std::string to_json() const;
  bool from_json(const Json& j, std::string* err);

 private:
  StatSlots<Ctr, std::uint64_t, kCtrNames> ctrs_;
  StatSlots<Acc, Accumulator, kAccNames> accs_;
  StatSlots<Hist, Histogram, kHistNames> hists_;
};

}  // namespace rc
