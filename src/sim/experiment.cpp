#include "sim/experiment.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "common/parse.hpp"
#include "common/shard.hpp"
#include "cpu/apps.hpp"
#include "power/energy_model.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "sim/telemetry.hpp"

namespace rc {

namespace {

/// run_many tags each configuration before calling run_config so that
/// concurrent runs sharing one RC_TELEMETRY path each get their own file.
/// Empty (direct run_config / run_one callers) means "use the path as-is".
thread_local std::string g_telemetry_run_tag;

std::string sanitize_tag(const std::string& s) {
  std::string out;
  for (char c : s)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
  return out;
}

/// "trace.jsonl" + tag "Baseline.3" -> "trace.Baseline.3.jsonl"; a path
/// with no extension just gets the tag appended.
std::string path_with_tag(const std::string& path, const std::string& tag) {
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + "." + tag;
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

bool env_full_runs() {
  const char* v = std::getenv("RC_FULL");
  if (v == nullptr || v[0] == '\0' || std::strcmp(v, "0") == 0)
    return false;
  if (std::strcmp(v, "1") == 0) return true;
  std::fprintf(stderr,
               "rc: environment variable RC_FULL=\"%s\" must be 0 or 1\n", v);
  std::exit(2);
}

}  // namespace

RunResult run_config(SystemConfig cfg, const std::string& label) {
  // Fail fast on configurations whose metrics would silently degenerate:
  // IPC divides by measure_cycles * cores, and a NaN/inf there poisons
  // every downstream speedup without any obvious symptom.
  if (cfg.measure_cycles == 0)
    fatal("run_config('" + label + "'): measure_cycles must be > 0");
  if (cfg.noc.num_nodes() <= 0)
    fatal("run_config('" + label + "'): configuration has no cores (mesh " +
          std::to_string(cfg.noc.mesh_w) + "x" +
          std::to_string(cfg.noc.mesh_h) + ")");
  std::string err = cfg.validate();
  if (!err.empty()) fatal("run_config('" + label + "'): " + err);

  System sys(cfg);
  sys.run();
  return extract_result(sys, label);
}

RunResult extract_result(System& sys, const std::string& label) {
  const SystemConfig& cfg = sys.config();
  // RC_TELEMETRY: flush the trace while the System is still alive and print
  // its digest next to the run. Under run_many every run gets a per-run tag
  // spliced into the shared path (label + input index) — previously all
  // concurrent runs raced rewrites of one file and which trace survived was
  // a scheduling accident. The digest line below prints the resolved path.
  if (Telemetry* t = sys.telemetry()) {
    if (!g_telemetry_run_tag.empty())
      t->set_path(path_with_tag(t->path(), g_telemetry_run_tag));
    if (t->write())
      // The digest names the resolved shard count (RC_SHARDS=auto and
      // clamping make the configured value an unreliable record): traces
      // from differently-sharded runs are byte-identical by construction,
      // and the digest line is where that claim gets checked.
      print_telemetry_summary(
          summarize_events(t->events(), t->samples(), /*include_warmup=*/false),
          "telemetry '" + label + "' (" + std::to_string(sys.shards()) +
              " shard" + (sys.shards() == 1 ? "" : "s") + ") -> " + t->path());
  }

  RunResult r;
  r.preset = label;
  r.app = cfg.workload;
  r.cores = cfg.noc.num_nodes();
  r.cycles = cfg.measure_cycles;
  r.retired = sys.total_retired();
  r.ipc = static_cast<double>(r.retired) /
          (static_cast<double>(r.cycles) * r.cores);
  r.net = sys.network().merged_stats();
  r.sys = sys.merged_sys_stats();
  r.noc = cfg.noc;
  r.energy_per_instr = EnergyModel::energy_per_instruction(
      cfg.noc, r.net, r.cycles, r.retired);
  return r;
}

RunResult run_one(int cores, const std::string& preset, const std::string& app,
                  std::uint64_t seed, Cycle warmup, Cycle measure) {
  SystemConfig cfg = make_system_config(cores, preset, app, seed);
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  return run_config(cfg, preset);
}

std::vector<RunResult> run_many(const std::vector<SystemConfig>& cfgs,
                                const std::vector<std::string>& labels,
                                int jobs) {
  RC_ASSERT(cfgs.size() == labels.size(), "one label per configuration");
  if (jobs <= 0) {
    jobs = static_cast<int>(env_positive_ll("RC_JOBS", 0));
    if (jobs <= 0) jobs = allowed_cpus();
  }
  std::vector<RunResult> out(cfgs.size());
  std::atomic<std::size_t> next{0};
  // Exceptions (fatal() included) must not escape a worker thread — that
  // would std::terminate the whole sweep. Record per-config failures and
  // let the remaining configurations finish.
  auto worker = [&]() {
    for (;;) {
      std::size_t i = next.fetch_add(1);
      if (i >= cfgs.size()) return;
      // Label + input index uniquely names this run's telemetry file even
      // when labels repeat across the sweep.
      g_telemetry_run_tag = sanitize_tag(labels[i]) + "." + std::to_string(i);
      try {
        out[i] = run_config(cfgs[i], labels[i]);
      } catch (const std::exception& e) {
        out[i].preset = labels[i];
        out[i].app = cfgs[i].workload;
        out[i].failed = true;
        out[i].error = e.what();
      }
      g_telemetry_run_tag.clear();
    }
  };
  std::vector<std::thread> pool;
  const int n = std::min<int>(jobs, static_cast<int>(cfgs.size()));
  for (int t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  // Report every failed configuration, not just the first — a sweep that
  // dies on config 3 of 40 would otherwise hide failures 4..40 until the
  // next rerun.
  std::size_t failures = 0;
  std::string detail;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].failed) continue;
    ++failures;
    detail += "\n  '" + labels[i] + "': " + out[i].error;
  }
  if (failures > 0)
    throw FatalError("run_many: " + std::to_string(failures) +
                     " configuration(s) failed:" + detail);
  return out;
}

ReplyBreakdown reply_breakdown(const RunResult& r) {
  ReplyBreakdown b;
  auto n = [&](const char* k) { return r.net.counter_value(k); };
  const std::uint64_t used = n("reply_used");
  const std::uint64_t partial = n("reply_partial");
  const std::uint64_t failed = n("reply_failed");
  const std::uint64_t undone = n("reply_undone");
  const std::uint64_t scr = n("reply_scrounged");
  const std::uint64_t not_el = n("reply_not_eligible");
  const std::uint64_t other = n("reply_eligible_nocirc");
  const std::uint64_t elim = r.sys.counter_value("replies_eliminated");
  const std::uint64_t total =
      used + partial + failed + undone + scr + not_el + other + elim;
  b.total_replies = total;
  if (total == 0) return b;
  const double t = static_cast<double>(total);
  b.used = used / t;
  b.failed = (failed + partial) / t;
  b.undone = undone / t;
  b.scrounged = scr / t;
  b.not_eligible = not_el / t;
  b.eliminated = elim / t;
  b.other = other / t;
  return b;
}

Cycle env_measure_cycles(Cycle fallback) {
  return static_cast<Cycle>(
      env_positive_ll("RC_MEASURE_CYCLES", static_cast<long long>(fallback)));
}
Cycle env_warmup_cycles(Cycle fallback) {
  return static_cast<Cycle>(
      env_positive_ll("RC_WARMUP_CYCLES", static_cast<long long>(fallback)));
}
const std::vector<std::string>& bench_apps() {
  return env_full_runs() ? paper_app_names() : app_names_small();
}

}  // namespace rc
