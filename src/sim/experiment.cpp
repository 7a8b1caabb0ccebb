#include "sim/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/parse.hpp"
#include "cpu/apps.hpp"
#include "power/energy_model.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "sim/telemetry.hpp"

namespace rc {

namespace {

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
  // its digest next to the run.
  if (Telemetry* t = sys.telemetry()) {
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
