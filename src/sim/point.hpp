// One run point of the evaluation grid and the one table describing its
// axes. rc-sim's flags, rc-dse's sweep specs and rc-fuzz's draws all name
// points through it: each row of the table in point.cpp gives an axis's
// spec key, point_key tag, rc-sim flag, SweepPoint field and minimum, and
// every operation below walks the rows. point_config is the only code that
// maps a point onto a SystemConfig; what shapes a point's warm-up is asked
// of that config (warm_group_hash, sim/snapshot.hpp), not of the point.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/config.hpp"

namespace rc {

struct Json;

/// String axes keep their CLI spelling; -1 on an int knob and false on a
/// switch mean "config default, flag omitted".
struct SweepPoint {
  std::string mesh = "4x4";
  std::string topology = "mesh";
  std::string mc_placement = "edge-middle";
  std::string preset = "SlackDelay1_NoAck";
  std::string app = "fft";
  std::string protocol = "mesi";
  int dir_pointers = -1;
  int dir_sets = -1;
  int dir_ways = -1;
  int circuits = -1;
  int slack = -1;
  int buf_depth = -1;
  int vcs_req = -1;
  int vcs_rep = -1;
  int partition = -1;            ///< partition side; 0 = one monolithic chip
  bool no_l1tol1 = false;        ///< L2 intermediary instead of L1-to-L1
  bool undo_on_l2_miss = false;  ///< undo a built circuit on an L2 miss
  int shards = -1;  ///< exported as RC_SHARDS to an rc-sim child (no flag)
  std::uint64_t seed = 1;
  Cycle warmup = 500;
  Cycle cycles = 2000;
};

/// One axis. The field's type is its kind: a name, an int knob (-1 =
/// default), a switch (a flag without a value; true in a spec) or a count
/// (seed and run lengths, always set).
struct PointAxis {
  const char* key;   ///< sweep-spec key
  const char* tag;   ///< point_key tag
  const char* flag;  ///< rc-sim flag; nullptr = none (shards rides RC_SHARDS)
  std::variant<std::string SweepPoint::*, int SweepPoint::*,
               bool SweepPoint::*, std::uint64_t SweepPoint::*>
      field;
  long long min;  ///< smallest legal knob or count
  /// Left out of point_key while at its default: the rows added after keys
  /// were first journaled, so every earlier point keeps its key bytes.
  bool omit_default = false;
};

/// Every axis in canonical order: point_key's, point_args', the spec
/// writer's and rc-dse's cross-product order (last row fastest).
std::span<const PointAxis> point_axes();
const PointAxis* find_point_axis(const std::string& key);  ///< nullptr if none

/// Set an axis from a spec value: names take strings, knobs integers
/// (validate_point range-checks them), counts non-negative integers.
bool set_point_axis(SweepPoint* p, const PointAxis& a, const Json& v,
                    std::string* err);
/// Does the point carry this value on this axis? (spec exclude matching)
bool point_axis_equals(const SweepPoint& p, const PointAxis& a, const Json& v);

/// rc-sim's point flags: numbers must parse whole and be >= the axis
/// minimum; names are left to validate_point. A switch takes no value
/// (set_point_flag ignores `value`).
bool is_point_flag(const std::string& flag);
bool point_flag_takes_value(const std::string& flag);
bool set_point_flag(SweepPoint* p, const std::string& flag,
                    const std::string& value, std::string* err);

/// Names against the preset/app/topology/placement/protocol tables, the
/// mesh against the strict WxH form, knobs -1 or >= their minimum.
bool validate_point(const SweepPoint& p, std::string* err);

/// Canonical single-line identity: every axis, fixed order. Journals match
/// on it across resumes, so its bytes must not move. It names a spelling:
/// a knob set to its preset's own value keys apart from the same knob left
/// at -1, though both simulate one configuration (config_digest of
/// point_config names the configuration, sim/snapshot.hpp).
std::string point_key(const SweepPoint& p);

/// rc-sim's argv for the point (no argv[0]; default knobs, switches that
/// are off and shards left out), and the point as a sweep-spec "points"
/// entry.
std::vector<std::string> point_args(const SweepPoint& p);
std::string point_json(const SweepPoint& p);

/// The SystemConfig a validated point simulates.
SystemConfig point_config(const SweepPoint& p);

}  // namespace rc
