#include "sim/dse.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/config.hpp"
#include "common/parse.hpp"
#include "power/energy_model.hpp"
#include "sim/experiment.hpp"
#include "sim/snapshot.hpp"

namespace rc {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool set_err(std::string* err, const std::string& msg) {
  if (err) *err = msg;
  return false;
}

/// The key a point's result record carries: point_key as rc-sim spells the
/// point. shards rides RC_SHARDS, not a flag, so rc-sim's point leaves it
/// at -1.
std::string record_key(SweepPoint p) {
  p.shards = -1;
  return point_key(p);
}

/// mkdir -p: create every missing component. Racing creators are fine
/// (EEXIST is success); anything else is a real failure.
bool ensure_dir(const std::string& path) {
  std::string cur;
  std::size_t i = 0;
  while (i < path.size()) {
    std::size_t j = path.find('/', i);
    if (j == std::string::npos) j = path.size();
    cur.append(path, i, j - i);
    if (!cur.empty() && cur != "." && cur != "..") {
      if (::mkdir(cur.c_str(), 0777) != 0 && errno != EEXIST) return false;
    }
    if (j < path.size()) cur.push_back('/');
    i = j + 1;
  }
  return true;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// The record a parsed journal line holds; absent fields keep defaults.
JournalRecord record_of(const Json& j) {
  JournalRecord r;
  const Json* v;
  if ((v = j.find("id")) && v->type == Json::Type::Int) r.id = v->i;
  if ((v = j.find("key")) && v->type == Json::Type::Str) r.key = v->s;
  if ((v = j.find("status")) && v->type == Json::Type::Str) r.status = v->s;
  if ((v = j.find("attempts")) && v->type == Json::Type::Int)
    r.attempts = static_cast<int>(v->i);
  if ((v = j.find("exit")) && v->type == Json::Type::Int)
    r.exit_code = static_cast<int>(v->i);
  if ((v = j.find("wall_s")) && v->is_num()) r.wall_s = v->d;
  if ((v = j.find("maxrss_kb")) && v->type == Json::Type::Int)
    r.maxrss_kb = v->i;
  return r;
}

}  // namespace

bool parse_sweep_spec(const std::string& json_text,
                      std::vector<SweepPoint>* out, std::string* err) {
  out->clear();
  std::string jerr;
  auto doc = parse_json(json_text, &jerr);
  if (!doc) return set_err(err, "spec is not valid JSON: " + jerr);
  if (doc->type != Json::Type::Obj)
    return set_err(err, "spec must be a JSON object");

  const std::span<const PointAxis> axes = point_axes();
  SweepPoint base;
  const Json* excludes = nullptr;
  const Json* points = nullptr;
  // Per-axis value lists, in table order; empty = axis not swept (the base
  // default contributes its single value).
  std::vector<std::vector<const Json*>> axis_vals(axes.size());

  for (const auto& kv : doc->obj) {
    const std::string& key = kv.first;
    const Json& v = kv.second;
    if (key == "exclude") {
      if (v.type != Json::Type::Arr)
        return set_err(err, "'exclude' must be an array of objects");
      excludes = &v;
      continue;
    }
    if (key == "points") {
      if (v.type != Json::Type::Arr)
        return set_err(err, "'points' must be an array of objects");
      points = &v;
      continue;
    }
    const PointAxis* a = find_point_axis(key);
    if (a == nullptr) return set_err(err, "unknown spec key '" + key + "'");
    // Scalar warmup/cycles set the base point without counting as swept
    // axes — a pure-"points" spec with scalar run lengths must not summon
    // the grid's default point. Lists sweep them like any other axis.
    const auto* count = std::get_if<std::uint64_t SweepPoint::*>(&a->field);
    if (count && (*count == &SweepPoint::warmup ||
                  *count == &SweepPoint::cycles) &&
        v.type != Json::Type::Arr) {
      if (!set_point_axis(&base, *a, v, err)) return false;
      continue;
    }
    // An axis: scalar or list of scalars.
    const std::size_t ai = static_cast<std::size_t>(a - axes.data());
    if (v.type == Json::Type::Arr) {
      if (v.arr.empty())
        return set_err(err, "axis '" + key + "' has an empty value list");
      for (const Json& e : v.arr) axis_vals[ai].push_back(&e);
    } else {
      axis_vals[ai].push_back(&v);
    }
  }

  // Parse excludes up front so a bad exclude fails even when no point
  // matches it.
  std::vector<std::vector<std::pair<const PointAxis*, const Json*>>> excl;
  if (excludes) {
    for (const Json& e : excludes->arr) {
      if (e.type != Json::Type::Obj || e.obj.empty())
        return set_err(err, "'exclude' entries must be non-empty objects");
      std::vector<std::pair<const PointAxis*, const Json*>> pairs;
      for (const auto& kv : e.obj) {
        const PointAxis* a = find_point_axis(kv.first);
        if (a == nullptr)
          return set_err(err, "exclude references unknown axis '" + kv.first +
                                  "'");
        pairs.emplace_back(a, &kv.second);
      }
      excl.push_back(std::move(pairs));
    }
  }

  // Cross-product expansion: odometer over the swept axes, rightmost
  // (seed) fastest, so point ids are stable across runs of the same spec.
  // A spec with no axes normally yields the single base point — but not
  // when it is a pure "points" spec (rc-fuzz --spec-out), where the grid
  // contributes nothing and the default point was never asked for.
  bool any_axis = false;
  for (const auto& vals : axis_vals) any_axis |= !vals.empty();
  const bool expand_grid = any_axis || points == nullptr;
  std::vector<std::size_t> idx(axes.size(), 0);
  while (expand_grid) {
    SweepPoint p = base;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      if (axis_vals[i].empty()) continue;
      if (!set_point_axis(&p, axes[i], *axis_vals[i][idx[i]], err))
        return false;
    }
    bool dropped = false;
    for (const auto& pairs : excl) {
      bool all = true;
      for (const auto& [axis, val] : pairs) {
        if (!point_axis_equals(p, *axis, *val)) {
          all = false;
          break;
        }
      }
      if (all) {
        dropped = true;
        break;
      }
    }
    if (!dropped) {
      if (!validate_point(p, err)) {
        if (err) *err += " (point " + point_key(p) + ")";
        return false;
      }
      out->push_back(std::move(p));
    }
    // advance the odometer
    std::size_t i = axes.size();
    while (i > 0) {
      --i;
      if (axis_vals[i].empty()) continue;
      if (++idx[i] < axis_vals[i].size()) break;
      idx[i] = 0;
      if (i == 0) break;
    }
    bool done = true;
    for (std::size_t k = 0; k < axes.size(); ++k)
      if (idx[k] != 0) done = false;
    if (done) break;
  }

  // Explicit points (rc-fuzz --spec-out emits these): appended after the
  // cross product, exempt from excludes — they were asked for by name.
  if (points) {
    for (const Json& e : points->arr) {
      if (e.type != Json::Type::Obj)
        return set_err(err, "'points' entries must be objects");
      SweepPoint p = base;
      for (const auto& kv : e.obj) {
        const PointAxis* a = find_point_axis(kv.first);
        if (a == nullptr) return set_err(err, "unknown key '" + kv.first + "'");
        if (!set_point_axis(&p, *a, kv.second, err)) return false;
      }
      if (!validate_point(p, err)) {
        if (err) *err += " (point " + point_key(p) + ")";
        return false;
      }
      out->push_back(std::move(p));
    }
  }
  return true;
}

std::string point_result_json(const RunResult& r, const SweepPoint& p,
                              double wall_s) {
  char wall[32];
  std::snprintf(wall, sizeof wall, "%.4f", wall_s);
  return "{\"key\":\"" + record_key(p) +
         "\",\"retired\":" + std::to_string(r.retired) +
         ",\"net\":" + r.net.to_json() + ",\"sys\":" + r.sys.to_json() +
         ",\"wall_s\":" + wall + "}";
}

bool read_point_result(const std::string& json_text, const SweepPoint& p,
                       RunResult* out, std::string* err) {
  std::string jerr;
  const std::optional<Json> j = parse_json(json_text, &jerr);
  if (!j) return set_err(err, "result is not JSON: " + jerr);
  const Json* key = j->find("key");
  const Json* retired = j->find("retired");
  const Json* net = j->find("net");
  const Json* sys = j->find("sys");
  if (key == nullptr || key->type != Json::Type::Str || retired == nullptr ||
      retired->type != Json::Type::Int || retired->i < 0 || net == nullptr ||
      sys == nullptr)
    return set_err(err, "result lacks key, retired, net or sys");
  if (key->s != record_key(p))
    return set_err(err, "result is for point '" + key->s + "', not '" +
                            record_key(p) + "'");
  RunResult r;
  if (!r.net.from_json(*net, &jerr) || !r.sys.from_json(*sys, &jerr))
    return set_err(err, "result stats: " + jerr);
  const SystemConfig cfg = point_config(p);
  r.preset = p.preset;
  r.app = p.app;
  r.cores = cfg.noc.num_nodes();
  r.cycles = cfg.measure_cycles;
  r.retired = static_cast<std::uint64_t>(retired->i);
  r.ipc = static_cast<double>(r.retired) /
          (static_cast<double>(r.cycles) * r.cores);
  r.noc = cfg.noc;
  r.energy_per_instr = EnergyModel::energy_per_instruction(
      cfg.noc, r.net, r.cycles, r.retired);
  *out = std::move(r);
  return true;
}

std::string journal_line(const JournalRecord& r) {
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"id\":%lld,\"key\":\"%s\",\"status\":\"%s\","
                "\"attempts\":%d,\"exit\":%d,\"wall_s\":%.4f,"
                "\"maxrss_kb\":%lld}",
                r.id, r.key.c_str(), r.status.c_str(), r.attempts, r.exit_code,
                r.wall_s, r.maxrss_kb);
  return buf;
}

bool load_journal(const std::string& path, std::vector<JournalRecord>* out,
                  bool* torn_tail, std::string* err) {
  out->clear();
  if (torn_tail) *torn_tail = false;
  if (!file_exists(path)) return true;
  std::string text;
  if (!read_file(path, &text))
    return set_err(err, "cannot read journal '" + path + "'");
  std::size_t line_no = 0, pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool has_newline = nl != std::string::npos;
    if (!has_newline) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    std::string jerr;
    auto j = parse_json(line, &jerr);
    const bool is_last = pos >= text.size();
    if (!j || j->type != Json::Type::Obj) {
      // A torn final record is the expected shape of a crash mid-append
      // (each line is fsync'd whole before the next starts); anything
      // torn *before* the end means real corruption.
      if (is_last) {
        if (torn_tail) *torn_tail = true;
        break;
      }
      return set_err(err, "journal '" + path + "' line " +
                              std::to_string(line_no) + " is corrupt: " + jerr);
    }
    JournalRecord r = record_of(*j);
    if (r.key.empty() || (r.status != "ok" && r.status != "failed" &&
                          r.status != "timeout"))
      return set_err(err, "journal '" + path + "' line " +
                              std::to_string(line_no) +
                              " is not a sweep record");
    out->push_back(std::move(r));
  }
  return true;
}

// ---- process scheduling ---------------------------------------------------

namespace {

/// How a point participates in warm-start sharing.
enum class WarmMode {
  Plain,   ///< no sharing: run the warm-up in-process
  Leader,  ///< runs the group's warm-up and deposits the shared snapshot
  Loader,  ///< resumes from the group snapshot with --load-state
};

struct PendingRun {
  long long idx = 0;
  int attempt = 1;
  double ready_at = 0;  ///< retry backoff gate
  WarmMode warm = WarmMode::Plain;
};

struct RunningChild {
  pid_t pid = -1;
  long long idx = 0;
  int attempt = 1;
  double start = 0;
  bool killed = false;  ///< we SIGKILLed it for exceeding the timeout
  WarmMode warm = WarmMode::Plain;
};

/// One warm-start group: the points sharing a warm-up snapshot. Members
/// other than the leader wait in `waiters` (not in the run queue) until the
/// leader's terminal record, then run as loaders if the snapshot landed or
/// fall back to plain runs if it did not.
struct WarmGroup {
  std::string snap_path;  ///< absolute .../snapshots/<hash>/warmup.state
  std::vector<long long> waiters;
};

std::string workdir_for(const std::string& out_dir, long long idx) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/points/p%05lld", idx);
  return out_dir + buf;
}

/// fork/exec one point in its own workdir and process group; stdout/stderr
/// go to per-attempt log files. Never returns in the child. `extra` carries
/// the warm-start snapshot flags (--save-state / --load-state, absolute
/// paths — the child chdirs away before exec).
pid_t spawn_point(const std::string& runner, const SweepPoint& p,
                  const std::string& workdir,
                  const std::vector<std::string>& extra) {
  std::vector<std::string> args = point_args(p);
  args.insert(args.end(), extra.begin(), extra.end());
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, -1)

  // Child. Only async-signal-safe-ish setup from here to execvp; any
  // failure exits 127 so the parent records a clean `failed`.
  ::setpgid(0, 0);  // own process group: the timeout kill reaps helpers too
  if (::chdir(workdir.c_str()) != 0) ::_exit(127);
  const int ofd = ::open("stdout.log", O_WRONLY | O_CREAT | O_TRUNC, 0666);
  const int efd = ::open("stderr.log", O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (ofd < 0 || efd < 0) ::_exit(127);
  ::dup2(ofd, 1);
  ::dup2(efd, 2);
  ::close(ofd);
  ::close(efd);
  // A sweep-wide RC_TELEMETRY would make every point overwrite the same
  // trace file; one configuration is traced by running it with rc-sim.
  ::unsetenv("RC_TELEMETRY");
  if (p.shards >= 1)
    ::setenv("RC_SHARDS", std::to_string(p.shards).c_str(), 1);

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(runner.c_str()));
  for (auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(const_cast<char*>("--point-out"));
  argv.push_back(const_cast<char*>("result.json"));
  argv.push_back(nullptr);
  ::execvp(runner.c_str(), argv.data());
  ::_exit(127);
}

/// The point's aggregate columns, as JSON members or as CSV values.
std::string config_fields(const SweepPoint& p, bool json) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      json ? "\"preset\":\"%s\",\"app\":\"%s\",\"mesh\":\"%s\","
             "\"topology\":\"%s\",\"mc_placement\":\"%s\",\"protocol\":\"%s\","
             "\"seed\":%llu,\"warmup\":%llu,\"cycles\":%llu"
           : "%s,%s,%s,%s,%s,%s,%llu,%llu,%llu",
      p.preset.c_str(), p.app.c_str(), p.mesh.c_str(), p.topology.c_str(),
      p.mc_placement.c_str(), p.protocol.c_str(),
      static_cast<unsigned long long>(p.seed),
      static_cast<unsigned long long>(p.warmup),
      static_cast<unsigned long long>(p.cycles));
  return buf;
}

bool write_manifest(const std::string& out_dir, const char* status,
                    long long total, const DseOutcome& oc, std::string* err) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n  \"v\": 1,\n  \"status\": \"%s\",\n  \"points\": %lld,\n"
                "  \"ok\": %lld,\n  \"failed\": %lld,\n  \"timeout\": %lld,\n"
                "  \"skipped_prior\": %lld\n}\n",
                status, total, oc.ok, oc.failed, oc.timeout, oc.skipped);
  return write_file_atomic(out_dir + "/manifest.json", buf, err);
}

/// Deterministic aggregates (results.jsonl / results.csv: point order, no
/// wall-clock fields — resumed and uninterrupted sweeps must be
/// byte-identical) plus the wall-clock summary.json that --compare gates
/// the sweep on (see compare_summaries).
bool write_aggregates(const std::string& out_dir,
                      const std::vector<SweepPoint>& points,
                      const std::vector<std::optional<JournalRecord>>& recs,
                      std::string* err) {
  AtomicFile jout(out_dir + "/results.jsonl");
  AtomicFile cout_(out_dir + "/results.csv");
  std::string summary = "{\n  \"results\": [\n";
  if (!jout.stream() || !cout_.stream())
    return set_err(err, "cannot open aggregate temporaries in " + out_dir);
  std::fputs(
      "id,status,preset,app,mesh,topology,mc_placement,protocol,seed,"
      "warmup,cycles,ipc,retired,energy_per_instr\n",
      cout_.stream());
  bool first_summary = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!recs[i]) continue;  // stopped-early sweeps aggregate the done subset
    const SweepPoint& p = points[i];
    const JournalRecord& r = *recs[i];
    const std::string cfg = config_fields(p, true);
    const std::string csv = config_fields(p, false);
    if (r.status == "ok") {
      RunResult res;
      std::string rerr;
      if (!load_point_result(out_dir, r.id, p, &res, &rerr))
        return set_err(err, "point " + std::to_string(r.id) +
                                " is journaled ok but its result.json is "
                                "unusable: " + rerr);
      std::fprintf(jout.stream(),
                   "{\"id\":%lld,\"status\":\"ok\",%s,\"ipc\":%.6f,"
                   "\"retired\":%llu,\"energy_per_instr\":%.6f,"
                   "\"reply_used\":%.6f,\"flits_injected\":%llu}\n",
                   r.id, cfg.c_str(), res.ipc,
                   static_cast<unsigned long long>(res.retired),
                   res.energy_per_instr, reply_breakdown(res).used,
                   static_cast<unsigned long long>(
                       res.net.counter_value("ni_inject_flit")));
      std::fprintf(cout_.stream(), "%lld,ok,%s,%.6f,%llu,%.6f\n", r.id,
                   csv.c_str(), res.ipc,
                   static_cast<unsigned long long>(res.retired),
                   res.energy_per_instr);
      // Summary row: names are id-prefixed so they stay unique and stable
      // across sweeps of the same spec.
      const Cycle simulated = p.warmup + p.cycles;
      if (r.wall_s > 0) {
        char line[384];
        std::snprintf(line, sizeof line,
                      "    {\"name\": \"p%05lld_%s_%s_%s_%s\", \"shards\": %d, "
                      "\"wall_s\": %.4f, \"cycles\": %llu, "
                      "\"cycles_per_sec\": %.0f}",
                      r.id, p.preset.c_str(), p.app.c_str(), p.mesh.c_str(),
                      p.topology.c_str(), p.shards >= 1 ? p.shards : 1,
                      r.wall_s, static_cast<unsigned long long>(simulated),
                      static_cast<double>(simulated) / r.wall_s);
        if (!first_summary) summary += ",\n";
        summary += line;
        first_summary = false;
      }
    } else {
      std::fprintf(jout.stream(), "{\"id\":%lld,\"status\":\"%s\",%s}\n", r.id,
                   r.status.c_str(), cfg.c_str());
      std::fprintf(cout_.stream(), "%lld,%s,%s,,,\n", r.id, r.status.c_str(),
                   csv.c_str());
    }
  }
  summary += "\n  ]\n}\n";
  if (!jout.commit(err) || !cout_.commit(err)) return false;
  return write_file_atomic(out_dir + "/summary.json", summary, err);
}

}  // namespace

int run_sweep(const DseOptions& opt, DseOutcome* outcome, std::string* err) {
  DseOutcome oc;
  const std::vector<SweepPoint>& points = opt.points;
  if (points.empty()) {
    set_err(err, "no points to run");
    return 2;
  }
  for (const SweepPoint& p : points) {
    if (!validate_point(p, err)) {
      if (err) *err += " (point " + point_key(p) + ")";
      return 2;
    }
  }
  oc.total = static_cast<long long>(points.size());
  if (opt.runner.empty()) {
    set_err(err, "no runner binary configured");
    return 2;
  }
  // The children chdir into their workdirs, so a relative runner path must
  // be resolved now (plain names without '/' go through PATH via execvp).
  std::string runner = opt.runner;
  if (runner.find('/') != std::string::npos && runner[0] != '/') {
    char abs[4096];
    if (::realpath(runner.c_str(), abs) == nullptr) {
      set_err(err, "runner '" + runner + "' does not exist");
      return 2;
    }
    runner = abs;
  }
  if (runner.find('/') != std::string::npos &&
      ::access(runner.c_str(), X_OK) != 0) {
    set_err(err, "runner '" + runner + "' is not executable");
    return 2;
  }
  if (!ensure_dir(opt.out_dir) || !ensure_dir(opt.out_dir + "/points")) {
    set_err(err, "cannot create output directory '" + opt.out_dir + "'");
    return 2;
  }

  // Resume: a journal means a prior sweep lives here. Completed points are
  // skipped; points that were in flight (no terminal record — including a
  // torn final line) re-run from scratch. A record names its point by index
  // and key, and both must still hold: a point list edited since the
  // journal was written would otherwise file one point's result under
  // another point's row.
  const std::string journal_path = opt.out_dir + "/journal.jsonl";
  std::vector<std::optional<JournalRecord>> final_rec(points.size());
  if (file_exists(journal_path)) {
    if (!opt.resume) {
      set_err(err, "journal '" + journal_path +
                       "' exists; pass --resume to continue that sweep or "
                       "use a fresh --out directory");
      return 2;
    }
    std::vector<JournalRecord> recs;
    bool torn = false;
    if (!load_journal(journal_path, &recs, &torn, err)) return 2;
    if (torn)
      std::fprintf(stderr,
                   "[rc-dse] journal has a torn final record (crashed "
                   "mid-append); that point will re-run\n");
    for (JournalRecord& r : recs) {
      const auto n = static_cast<long long>(points.size());
      if (r.id < 0 || r.id >= n ||
          point_key(points[static_cast<std::size_t>(r.id)]) != r.key) {
        set_err(err, "journal '" + journal_path + "' records point " +
                         std::to_string(r.id) + " as '" + r.key +
                         "', which is not that point of this sweep; resume "
                         "with the points it was written for or use a fresh "
                         "--out directory");
        return 2;
      }
      final_rec[static_cast<std::size_t>(r.id)] = std::move(r);  // last wins
    }
  }

  // Warm-start grouping needs absolute snapshot paths (children chdir into
  // their workdirs before exec).
  std::string abs_out = opt.out_dir;
  {
    char abs[4096];
    if (::realpath(opt.out_dir.c_str(), abs) != nullptr) abs_out = abs;
  }

  std::vector<long long> todo;  // points without a prior terminal record
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (final_rec[i])
      ++oc.skipped;
    else
      todo.push_back(static_cast<long long>(i));
  }

  // Group the to-run points by warm-up (warm_group_hash of the config the
  // point builds, so two spellings of one configuration share a group). A
  // group only pays off when at least two members would repeat the same
  // warm-up; singletons (and zero-warm-up points) run plain. A snapshot left
  // by a prior (resumed or unrelated) sweep of the same group
  // short-circuits the leader: every member loads it directly — rc-sim
  // re-validates the digest and the checksum, so a stale or foreign file
  // fails the load and the member falls back to its own warm-up.
  std::deque<PendingRun> queue;
  std::vector<WarmGroup> groups;
  std::vector<long long> group_of(points.size(), -1);
  std::map<std::string, std::vector<long long>> by_name;
  std::vector<std::string> name_of(points.size());
  for (long long idx : todo) {
    const SweepPoint& p = points[static_cast<std::size_t>(idx)];
    if (!opt.warm_start || p.warmup == 0) continue;
    name_of[static_cast<std::size_t>(idx)] =
        warm_group_name(warm_group_hash(point_config(p)));
    by_name[name_of[static_cast<std::size_t>(idx)]].push_back(idx);
  }
  for (long long idx : todo) {
    const std::string& name = name_of[static_cast<std::size_t>(idx)];
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.size() < 2) {
      queue.push_back(PendingRun{idx, 1, 0, WarmMode::Plain});
      continue;
    }
    if (it->second.front() != idx) continue;  // group handled at its leader
    const std::string dir = abs_out + "/snapshots/" + name;
    WarmGroup g;
    g.snap_path = dir + "/warmup.state";
    const bool have_snap = file_exists(g.snap_path);
    for (long long m : it->second) {
      group_of[static_cast<std::size_t>(m)] =
          static_cast<long long>(groups.size());
      if (have_snap) {
        queue.push_back(PendingRun{m, 1, 0, WarmMode::Loader});
      } else if (m == idx) {
        if (!ensure_dir(dir)) {
          set_err(err, "cannot create snapshot directory under " + abs_out);
          return 2;
        }
        queue.push_back(PendingRun{m, 1, 0, WarmMode::Leader});
      } else {
        g.waiters.push_back(m);
      }
    }
    groups.push_back(std::move(g));
  }

  std::FILE* jf = std::fopen(journal_path.c_str(), "a");
  if (!jf) {
    set_err(err, "cannot open journal '" + journal_path + "' for append");
    return 2;
  }
  if (!write_manifest(opt.out_dir, "running", oc.total, oc, err)) {
    std::fclose(jf);
    return 2;
  }

  const int jobs = std::max(1, opt.jobs);
  std::vector<RunningChild> running;
  long long newly_done = 0;
  bool journal_error = false;
  bool stopping = false;

  auto record_terminal = [&](long long idx, const char* status, int attempts,
                             int exit_code, double wall,
                             const struct rusage& ru) {
    JournalRecord r;
    r.id = idx;
    r.key = point_key(points[static_cast<std::size_t>(idx)]);
    r.status = status;
    r.attempts = attempts;
    r.exit_code = exit_code;
    r.wall_s = wall;
    r.maxrss_kb = ru.ru_maxrss;
    const std::string line = journal_line(r);
    if (!append_line_durable(jf, line)) {
      std::fprintf(stderr, "[rc-dse] cannot append to journal '%s'\n",
                   journal_path.c_str());
      journal_error = true;
    }
    // Keep the record exactly as journaled (wall_s at the line's precision):
    // a resume reads it back and must rewrite the same summary.json.
    std::string jerr;
    final_rec[static_cast<std::size_t>(idx)] =
        record_of(*parse_json(line, &jerr));
    ++newly_done;
  };

  // A terminal point releases its warm-start group's waiters (no-op for
  // plain points and for loaders, whose group has no waiters left). If the
  // leader failed before depositing the snapshot, the members run their own
  // warm-up — correctness never depends on the snapshot existing.
  auto release_group = [&](long long idx) {
    const long long gi = group_of[static_cast<std::size_t>(idx)];
    if (gi < 0) return;
    WarmGroup& g = groups[static_cast<std::size_t>(gi)];
    if (g.waiters.empty()) return;
    const bool have_snap = file_exists(g.snap_path);
    if (!have_snap)
      std::fprintf(stderr,
                   "[rc-dse] warm-start snapshot missing after its group "
                   "leader finished; %zu member(s) fall back to full "
                   "warm-up runs\n",
                   g.waiters.size());
    if (!stopping)
      for (long long m : g.waiters)
        queue.push_back(PendingRun{
            m, 1, 0, have_snap ? WarmMode::Loader : WarmMode::Plain});
    g.waiters.clear();
  };

  while (!queue.empty() || !running.empty()) {
    const double now = now_s();
    if (opt.max_points >= 0 && newly_done >= opt.max_points && !stopping) {
      stopping = true;  // drain running children, schedule nothing new
      queue.clear();
    }
    // Spawn while worker slots are free and the queue head is past its
    // retry backoff. (The queue is FIFO; a backoff gap at the head just
    // delays spawning, which keeps ordering deterministic.)
    while (!stopping && static_cast<int>(running.size()) < jobs &&
           !queue.empty() && queue.front().ready_at <= now) {
      const PendingRun pr = queue.front();
      queue.pop_front();
      const std::string dir = workdir_for(opt.out_dir, pr.idx);
      if (!ensure_dir(dir)) {
        struct rusage ru{};
        std::fprintf(stderr, "[rc-dse] cannot create workdir %s\n",
                     dir.c_str());
        record_terminal(pr.idx, "failed", pr.attempt, 127, 0, ru);
        release_group(pr.idx);
        continue;
      }
      std::vector<std::string> extra;
      if (pr.warm == WarmMode::Leader) {
        const long long gi = group_of[static_cast<std::size_t>(pr.idx)];
        extra = {"--save-state", groups[static_cast<std::size_t>(gi)].snap_path};
      } else if (pr.warm == WarmMode::Loader) {
        const long long gi = group_of[static_cast<std::size_t>(pr.idx)];
        extra = {"--load-state", groups[static_cast<std::size_t>(gi)].snap_path};
      }
      const pid_t pid = spawn_point(
          runner, points[static_cast<std::size_t>(pr.idx)], dir, extra);
      if (pid < 0) {
        // fork failure: transient resource exhaustion; retry like a crash
        if (pr.attempt < opt.max_attempts) {
          queue.push_back(PendingRun{pr.idx, pr.attempt + 1,
                                     now + opt.backoff_s * pr.attempt,
                                     pr.warm});
        } else {
          struct rusage ru{};
          record_terminal(pr.idx, "failed", pr.attempt, 127, 0, ru);
          release_group(pr.idx);
        }
        continue;
      }
      if (opt.verbose)
        std::fprintf(stderr, "[rc-dse] point %lld attempt %d -> pid %d\n",
                     pr.idx, pr.attempt, static_cast<int>(pid));
      running.push_back(
          RunningChild{pid, pr.idx, pr.attempt, now, false, pr.warm});
    }

    bool reaped = false;
    for (auto it = running.begin(); it != running.end();) {
      int st = 0;
      struct rusage ru{};
      const pid_t r = ::wait4(it->pid, &st, WNOHANG, &ru);
      if (r == it->pid) {
        reaped = true;
        const double wall = now_s() - it->start;
        const int exit_code = WIFEXITED(st) ? WEXITSTATUS(st)
                              : WIFSIGNALED(st) ? 128 + WTERMSIG(st)
                                                : 255;
        RunResult res;
        const bool ok =
            !it->killed && exit_code == 0 &&
            load_point_result(opt.out_dir, it->idx,
                              points[static_cast<std::size_t>(it->idx)], &res,
                              nullptr);
        if (it->killed) {
          // Timeouts are terminal: a hung configuration hangs again, and
          // retrying it would multiply the sweep's worst case by
          // max_attempts.
          record_terminal(it->idx, "timeout", it->attempt, exit_code, wall, ru);
          release_group(it->idx);
        } else if (ok) {
          record_terminal(it->idx, "ok", it->attempt, 0, wall, ru);
          if (it->warm == WarmMode::Loader) ++oc.warm_loaded;
          if (it->warm == WarmMode::Leader) ++oc.snapshots;
          release_group(it->idx);
        } else if (it->attempt < opt.max_attempts ||
                   it->warm == WarmMode::Loader) {
          if (opt.verbose)
            std::fprintf(stderr,
                         "[rc-dse] point %lld attempt %d exited %d; retrying\n",
                         it->idx, it->attempt, exit_code);
          // A failed loader always retries, with its own warm-up: if the
          // snapshot itself is the problem (corrupt, or a warm_group_hash
          // collision the digest check refused), retrying the load would
          // fail identically, and the point must not fail for it.
          queue.push_back(PendingRun{it->idx, it->attempt + 1,
                                     now_s() + opt.backoff_s * it->attempt,
                                     it->warm == WarmMode::Loader
                                         ? WarmMode::Plain
                                         : it->warm});
        } else {
          record_terminal(it->idx, "failed", it->attempt,
                          exit_code == 0 ? 1 : exit_code, wall, ru);
          release_group(it->idx);
        }
        it = running.erase(it);
      } else {
        if (opt.timeout_s > 0 && !it->killed &&
            now - it->start > opt.timeout_s) {
          ::kill(-it->pid, SIGKILL);  // whole process group
          it->killed = true;
        }
        ++it;
      }
    }
    if (!reaped && (!running.empty() || !queue.empty()))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::fclose(jf);

  for (const auto& r : final_rec) {
    if (!r) continue;
    if (r->status == "ok") ++oc.ok;
    else if (r->status == "timeout") ++oc.timeout;
    else ++oc.failed;
  }
  oc.stopped_early = stopping && (oc.ok + oc.failed + oc.timeout) < oc.total;

  if (!write_aggregates(opt.out_dir, points, final_rec, err)) return 2;
  if (!write_manifest(opt.out_dir,
                      oc.stopped_early ? "stopped" : "complete", oc.total, oc,
                      err))
    return 2;
  if (outcome) *outcome = oc;
  if (journal_error) {
    set_err(err, "journal writes failed; the sweep cannot be resumed safely");
    return 2;
  }
  if (oc.stopped_early) return 10;
  return (oc.failed + oc.timeout) > 0 ? 3 : 0;
}

bool load_point_result(const std::string& out_dir, long long id,
                       const SweepPoint& p, RunResult* out, std::string* err) {
  const std::string path = workdir_for(out_dir, id) + "/result.json";
  std::string text;
  if (!read_file(path, &text))
    return set_err(err, "cannot read '" + path + "'");
  return read_point_result(text, p, out, err);
}

std::string sibling_binary(const char* argv0, const char* name) {
  std::string self = argv0;
  const auto slash = self.find_last_of('/');
  if (slash == std::string::npos) return name;  // argv[0] via PATH; hope
  return self.substr(0, slash + 1) + name;
}

namespace {

struct SummaryRow {
  std::string name;
  long long shards = 1;
  double cycles_per_sec = 0;
};

/// Read the "results" rows of a summary. The whole file must be one JSON
/// document, so a truncated or garbage baseline is refused instead of being
/// compared from whatever part of it happened to parse.
bool load_summary(const std::string& path, std::vector<SummaryRow>* out,
                  std::string* err) {
  std::string text;
  if (!read_file(path, &text)) return set_err(err, "cannot read " + path);
  std::string perr;
  const std::optional<Json> doc = parse_json(text, &perr);
  if (!doc) return set_err(err, path + ": " + perr);
  const Json* rows = doc->find("results");
  if (rows == nullptr || rows->type != Json::Type::Arr)
    return set_err(err, path + ": not a summary (no \"results\" array)");
  for (const Json& row : rows->arr) {
    const Json* name = row.find("name");
    const Json* shards = row.find("shards");
    const Json* cps = row.find("cycles_per_sec");
    if (name == nullptr || name->type != Json::Type::Str ||
        shards == nullptr || shards->type != Json::Type::Int ||
        cps == nullptr || !cps->is_num())
      return set_err(err, path + ": result entry " +
                              std::to_string(out->size()) +
                              " lacks a string name, an integer shards or a "
                              "numeric cycles_per_sec");
    out->push_back(SummaryRow{name->s, shards->i, cps->d});
  }
  if (out->empty()) return set_err(err, path + ": no result entries");
  return true;
}

}  // namespace

int compare_summaries(const std::string& baseline, const std::string& current,
                      std::string* report, std::string* err) {
  std::vector<SummaryRow> olds, news;
  if (!load_summary(baseline, &olds, err) ||
      !load_summary(current, &news, err))
    return 2;
  // A drop in simulated cycles/s at the same shard count beyond this is a
  // regression; anything milder is host noise.
  constexpr double kTolerance = 0.10;
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %7s %12s %12s %9s\n", "benchmark",
                "shards", "old cyc/s", "new cyc/s", "speedup");
  std::string out = line;
  int matched = 0;
  int regressed = 0;
  double log_sum = 0;
  for (const SummaryRow& o : olds) {
    for (const SummaryRow& n : news) {
      if (n.name != o.name || n.shards != o.shards) continue;
      ++matched;
      const double speedup =
          o.cycles_per_sec > 0 ? n.cycles_per_sec / o.cycles_per_sec : 0;
      const bool bad = speedup < 1.0 - kTolerance;
      regressed += bad;
      if (speedup > 0) log_sum += std::log(speedup);
      std::snprintf(line, sizeof line, "%-28s %7lld %12.0f %12.0f %8.2fx%s\n",
                    o.name.c_str(), o.shards, o.cycles_per_sec,
                    n.cycles_per_sec, speedup, bad ? "  REGRESSION" : "");
      out += line;
      break;
    }
  }
  if (matched == 0) {
    set_err(err, "no (name, shards) row of " + baseline + " is in " + current);
    return 2;
  }
  std::snprintf(line, sizeof line,
                "geomean speedup over %d benchmark(s): %.2fx\n", matched,
                std::exp(log_sum / matched));
  *report = out + line;
  if (regressed > 0) {
    set_err(err, std::to_string(regressed) +
                     " benchmark(s) regressed by more than 10%");
    return 1;
  }
  return 0;
}

}  // namespace rc
