#include "sim/point.hpp"

#include <algorithm>
#include <cstdio>

#include "common/parse.hpp"
#include "cpu/apps.hpp"
#include "sim/presets.hpp"

namespace rc {

namespace {

using P = SweepPoint;

/// Canonical order: outermost first, cycles innermost. warmup and cycles
/// are full axes (lists allowed): a cycles axis is the natural shape of a
/// warm-start sweep, where every point repeats one warm-up and only the
/// measurement length varies.
constexpr PointAxis kAxes[] = {
    // key           tag       rc-sim flag        field         min
    {"mesh",         "mesh",   "--mesh",          &P::mesh,         0},
    {"topology",     "topo",   "--topology",      &P::topology,     0},
    {"mc_placement", "mc",     "--mc-placement",  &P::mc_placement, 0},
    {"preset",       "preset", "--preset",        &P::preset,       0},
    {"app",          "app",    "--app",           &P::app,          0},
    {"protocol",     "proto",  "--protocol",      &P::protocol,     0},
    {"dir_pointers", "dirp",   "--dir-pointers",  &P::dir_pointers, 1},
    {"dir_sets",     "dirs",   "--dir-sets",      &P::dir_sets,     1},
    {"dir_ways",     "dirw",   "--dir-ways",      &P::dir_ways,     1},
    {"circuits",     "circ",   "--circuits",      &P::circuits,     0},
    {"slack",        "slack",  "--slack",         &P::slack,        0},
    {"buf_depth",    "depth",  "--buf-depth",     &P::buf_depth,    1},
    {"vcs_req",      "vcsq",   "--vcs-req",       &P::vcs_req,      1},
    {"vcs_rep",      "vcsr",   "--vcs-rep",       &P::vcs_rep,      1},
    // Added after keys were first journaled (omit_default, last column).
    {"partition", "part", "--partition", &P::partition, 0, true},
    {"no_l1tol1", "nol1l1", "--no-l1tol1", &P::no_l1tol1, 0, true},
    {"undo_on_l2_miss", "undo", "--undo-on-l2-miss", &P::undo_on_l2_miss, 0,
     true},
    {"shards",       "shards", nullptr,           &P::shards,       1},
    {"seed",         "seed",   "--seed",          &P::seed,         0},
    {"warmup",       "warmup", "--warmup",        &P::warmup,       0},
    {"cycles",       "cycles", "--cycles",        &P::cycles,       1},
};

using NameField = std::string SweepPoint::*;
using KnobField = int SweepPoint::*;
using SwitchField = bool SweepPoint::*;
using CountField = std::uint64_t SweepPoint::*;

bool set_err(std::string* err, const std::string& msg) {
  if (err) *err = msg;
  return false;
}

/// The axis value as written in point_key and on the command line; empty
/// for a knob left at its default or a switch that is off.
std::string axis_text(const SweepPoint& p, const PointAxis& a) {
  if (const auto* f = std::get_if<NameField>(&a.field)) return p.*(*f);
  if (const auto* f = std::get_if<KnobField>(&a.field))
    return p.*(*f) == -1 ? std::string() : std::to_string(p.*(*f));
  if (const auto* f = std::get_if<SwitchField>(&a.field))
    return p.*(*f) ? "1" : "";
  return std::to_string(p.*std::get<CountField>(a.field));
}

bool parse_mesh(const std::string& mesh, int* w, int* h) {
  // Canonical only: "04x4" or " 4x4" would give one mesh a second key.
  return std::sscanf(mesh.c_str(), "%dx%d", w, h) == 2 && *w >= 1 &&
         *h >= 1 && mesh == std::to_string(*w) + "x" + std::to_string(*h);
}

}  // namespace

std::span<const PointAxis> point_axes() { return kAxes; }

const PointAxis* find_point_axis(const std::string& key) {
  for (const PointAxis& a : kAxes)
    if (key == a.key) return &a;
  return nullptr;
}

bool set_point_axis(SweepPoint* p, const PointAxis& a, const Json& v,
                    std::string* err) {
  const std::string key = a.key;
  if (const auto* f = std::get_if<NameField>(&a.field)) {
    if (v.type != Json::Type::Str)
      return set_err(err, "axis '" + key + "' takes string values");
    p->*(*f) = v.s;
  } else if (const auto* f = std::get_if<KnobField>(&a.field)) {
    if (v.type != Json::Type::Int || v.i != static_cast<int>(v.i))
      return set_err(err, "axis '" + key + "' takes int-sized integers");
    p->*(*f) = static_cast<int>(v.i);
  } else if (const auto* f = std::get_if<SwitchField>(&a.field)) {
    if (v.type != Json::Type::Bool)
      return set_err(err, "axis '" + key + "' takes true or false");
    p->*(*f) = v.b;
  } else {
    if (v.type != Json::Type::Int || v.i < 0)
      return set_err(err, "'" + key + "' takes non-negative integers");
    p->*std::get<CountField>(a.field) = static_cast<std::uint64_t>(v.i);
  }
  return true;
}

bool point_axis_equals(const SweepPoint& p, const PointAxis& a, const Json& v) {
  SweepPoint q = p;
  return set_point_axis(&q, a, v, nullptr) &&
         axis_text(q, a) == axis_text(p, a);
}

bool is_point_flag(const std::string& flag) {
  return std::any_of(std::begin(kAxes), std::end(kAxes), [&](const auto& a) {
    return a.flag != nullptr && flag == a.flag;
  });
}

bool point_flag_takes_value(const std::string& flag) {
  return std::any_of(std::begin(kAxes), std::end(kAxes), [&](const auto& a) {
    return a.flag != nullptr && flag == a.flag &&
           !std::holds_alternative<SwitchField>(a.field);
  });
}

bool set_point_flag(SweepPoint* p, const std::string& flag,
                    const std::string& value, std::string* err) {
  for (const PointAxis& a : kAxes) {
    if (a.flag == nullptr || flag != a.flag) continue;
    Json v;
    if (std::holds_alternative<SwitchField>(a.field)) {
      v.type = Json::Type::Bool;
      v.b = true;
    } else if (std::holds_alternative<NameField>(a.field)) {
      if (value.empty()) return set_err(err, flag + " needs a value");
      v.type = Json::Type::Str;
      v.s = value;
    } else {
      const auto n = parse_ll(value.c_str());
      if (!n || *n < a.min)
        return set_err(err, flag + ": \"" + value +
                                "\" is not an integer >= " +
                                std::to_string(a.min));
      v.type = Json::Type::Int;
      v.i = *n;
    }
    return set_point_axis(p, a, v, err);
  }
  return set_err(err, "unknown option " + flag);
}

bool validate_point(const SweepPoint& p, std::string* err) {
  int w = 0, h = 0;
  if (!parse_mesh(p.mesh, &w, &h))
    return set_err(err, "bad mesh '" + p.mesh + "' (expected WxH)");
  TopologyKind tk;
  if (!topology_from_string(p.topology, &tk))
    return set_err(err, "unknown topology '" + p.topology + "'");
  McPlacement mp;
  if (!mc_placement_from_string(p.mc_placement, &mp))
    return set_err(err, "unknown mc_placement '" + p.mc_placement + "'");
  if (std::ranges::count(preset_names(), p.preset) == 0)
    return set_err(err, "unknown preset '" + p.preset + "'");
  if (std::ranges::count(app_names(), p.app) == 0)
    return set_err(err, "unknown app '" + p.app + "'");
  Protocol proto;
  if (!protocol_from_string(p.protocol, &proto))
    return set_err(err, "unknown protocol '" + p.protocol + "'");
  for (const PointAxis& a : kAxes) {
    const std::string min = std::to_string(a.min);
    if (const auto* f = std::get_if<KnobField>(&a.field)) {
      if (p.*(*f) != -1 && p.*(*f) < a.min)
        return set_err(err, std::string(a.key) +
                                " must be -1 (default) or >= " + min);
    } else if (const auto* f = std::get_if<CountField>(&a.field)) {
      if (p.*(*f) < static_cast<std::uint64_t>(a.min))
        return set_err(err, std::string(a.key) + " must be >= " + min);
    }
  }
  return true;
}

std::string point_key(const SweepPoint& p) {
  // Defaults print as -1 so the key names every axis, except on
  // omit_default rows.
  std::string key;
  for (const PointAxis& a : kAxes) {
    const std::string v = axis_text(p, a);
    if (v.empty() && a.omit_default) continue;
    if (!key.empty()) key += ' ';
    key += std::string(a.tag) + '=' + (v.empty() ? "-1" : v);
  }
  return key;
}

std::vector<std::string> point_args(const SweepPoint& p) {
  std::vector<std::string> args;
  for (const PointAxis& a : kAxes) {
    std::string v = axis_text(p, a);
    if (a.flag == nullptr || v.empty()) continue;
    args.push_back(a.flag);
    if (!std::holds_alternative<SwitchField>(a.field))
      args.push_back(std::move(v));
  }
  return args;
}

std::string point_json(const SweepPoint& p) {
  std::string j;
  for (const PointAxis& a : kAxes) {
    const std::string v = axis_text(p, a);
    if (v.empty()) continue;
    j += j.empty() ? "{" : ", ";
    const bool name = std::holds_alternative<NameField>(a.field);
    const bool on = std::holds_alternative<SwitchField>(a.field);
    j += std::string("\"") + a.key + "\": " +
         (name ? '"' + v + '"' : on ? "true" : v);
  }
  return j + "}";
}

SystemConfig point_config(const SweepPoint& p) {
  // make_system_config sizes a square mesh from the core count and nothing
  // else from it, so any WxH replaces the 4x4 here.
  SystemConfig cfg = make_system_config(16, p.preset, p.app, p.seed);
  parse_mesh(p.mesh, &cfg.noc.mesh_w, &cfg.noc.mesh_h);
  topology_from_string(p.topology, &cfg.noc.topology);
  mc_placement_from_string(p.mc_placement, &cfg.noc.mc_placement);
  protocol_from_string(p.protocol, &cfg.protocol);
  if (p.dir_pointers != -1) cfg.cache.dir_pointers = p.dir_pointers;
  if (p.dir_sets != -1) cfg.cache.dir_sets = p.dir_sets;
  if (p.dir_ways != -1) cfg.cache.dir_ways = p.dir_ways;
  if (p.circuits != -1) cfg.noc.circuit.circuits_per_input = p.circuits;
  if (p.slack != -1) cfg.noc.circuit.slack_per_hop = p.slack;
  if (p.buf_depth != -1) cfg.noc.buffer_depth_flits = p.buf_depth;
  if (p.vcs_req != -1) cfg.noc.vcs_request_vn = p.vcs_req;
  if (p.vcs_rep != -1) cfg.noc.vcs_reply_vn = p.vcs_rep;
  if (p.partition != -1) cfg.partition_side = p.partition;
  if (p.no_l1tol1) cfg.cache.direct_l1_transfers = false;
  if (p.undo_on_l2_miss) cfg.noc.circuit.undo_on_l2_miss = true;
  if (p.shards != -1) cfg.shards = p.shards;
  cfg.warmup_cycles = p.warmup;
  cfg.measure_cycles = p.cycles;
  return cfg;
}

}  // namespace rc
