// rc-sim: command-line front end for the Reactive Circuits CMP simulator.
//
// Run-point flags are the axes of sim/point.hpp, as rc-dse and rc-fuzz
// emit them: --mesh WxH (default 8x8; --cores N is shorthand for a square
// mesh, and --mesh wins in any order), --topology mesh|torus|ring|cmesh,
// --mc-placement edge-middle|corner|diagonal, --preset NAME|all (default
// SlackDelay1_NoAck), --app NAME|all (default fft; alias --workload),
// --protocol mesi|sparse-msi, the overrides --dir-pointers/--dir-sets/
// --dir-ways/--circuits/--slack/--buf-depth/--vcs-req/--vcs-rep N,
// --partition N (partition side, 0 = off), the switches --no-l1tol1 (the
// L2-intermediary protocol variant) and --undo-on-l2-miss, and --seed N
// (1), --warmup N (10000), --cycles N (30000). Every point is checked
// before anything runs: an unknown name, a malformed mesh, a non-square
// --cores or a bad number exits 2 naming it.
//
// rc-sim's own flags:
//     --heatmap           print per-router flit counts after the run
//     --save-state FILE   write a full-system snapshot (default: at the
//                         end of warm-up, before the stats reset)
//     --save-at N         take the snapshot at cycle N instead
//     --load-state FILE   resume from a snapshot; the configuration must
//                         match the snapshot's digest on every field except
//                         --cycles, shards and tick mode (a mismatch, or a
//                         snapshot that fails to load: exit 2)
//     --csv               machine-readable one-line-per-run output
//     --point-out FILE    single-point mode for rc-dse: write the run result,
//                         whole StatSets included, as one JSON line to FILE
//                         (atomic rename)
//     --list              list presets and workloads, then exit
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "cpu/apps.hpp"
#include "sim/dse.hpp"
#include "sim/experiment.hpp"
#include "sim/point.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"

using namespace rc;

namespace {

/// rc-sim's own flags beside the run point.
struct Options {
  bool csv = false;
  bool heatmap = false;
  std::string point_out;  ///< rc-dse subprocess mode: machine-readable result
  std::string save_state;  ///< snapshot output path ("" = off)
  Cycle save_at = 0;       ///< 0 = end of warm-up
  std::string load_state;  ///< snapshot to resume from ("" = off)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mesh WxH | --cores N] [--preset NAME|all]\n"
               "  [--app|--workload NAME|all] [--protocol mesi|sparse-msi]\n"
               "  [--topology mesh|torus|ring|cmesh] [--dir-pointers N]\n"
               "  [--mc-placement edge-middle|corner|diagonal] [--dir-sets N]\n"
               "  [--dir-ways N] [--circuits N] [--slack N] [--buf-depth N]\n"
               "  [--vcs-req N] [--vcs-rep N] [--seed N] [--warmup N]\n"
               "  [--cycles N] [--partition N] [--no-l1tol1]\n"
               "  [--undo-on-l2-miss] [--heatmap] [--csv] [--point-out FILE]\n"
               "  [--save-state FILE] [--save-at N] [--load-state FILE]\n"
               "  [--list]\n",
               argv0);
  std::exit(2);
}

void list_and_exit() {
  std::printf("NoC presets:\n");
  for (const auto& p : preset_names()) std::printf("  %s\n", p.c_str());
  std::printf("\nWorkload models (parallel apps + multiprogrammed mix):\n");
  for (const auto& a : app_names()) std::printf("  %s\n", a.c_str());
  std::printf("\nSPEC models used inside 'mix':\n ");
  for (const auto& a : spec_app_names()) std::printf(" %s", a.c_str());
  std::printf("\n");
  std::exit(0);
}

void print_heatmap(System& sys) {
  const auto& topo = sys.network().topo();
  std::printf("\nrouter utilization heatmap (flits routed):\n");
  for (int y = 0; y < topo.height(); ++y) {
    for (int x = 0; x < topo.width(); ++x) {
      NodeId n = topo.node_at({x, y});
      std::printf("%8llu",
                  static_cast<unsigned long long>(
                      sys.network().router(n).flits_routed()));
    }
    std::printf("\n");
  }
}

RunResult run(const Options& o, const SweepPoint& p) {
  const SystemConfig cfg = point_config(p);
  std::string err = cfg.validate();
  if (!err.empty()) {
    std::fprintf(stderr, "invalid configuration: %s\n", err.c_str());
    std::exit(2);
  }
  const bool manual =
      o.heatmap || !o.save_state.empty() || !o.load_state.empty();
  if (!manual) return run_config(cfg, p.preset);

  // The heatmap and snapshots both need the System to outlive run_config's
  // all-in-one flow: step it manually, then extract the result.
  System sys(cfg);

  if (!o.load_state.empty()) {
    std::string serr;
    if (load_snapshot(&sys, o.load_state, &serr) != SnapshotStatus::Ok) {
      std::fprintf(stderr, "rc-sim: --load-state %s: %s\n",
                   o.load_state.c_str(), serr.c_str());
      std::exit(2);
    }
    std::fprintf(stderr, "[rc-sim] resumed at cycle %llu from %s\n",
                 static_cast<unsigned long long>(sys.now()),
                 o.load_state.c_str());
  }

  const Cycle end = cfg.warmup_cycles + cfg.measure_cycles;
  if (sys.now() > end) {
    std::fprintf(stderr,
                 "rc-sim: snapshot cycle %llu is past this run's "
                 "warmup+measure span (%llu cycles)\n",
                 static_cast<unsigned long long>(sys.now()),
                 static_cast<unsigned long long>(end));
    std::exit(2);
  }
  Cycle saveat = kNeverCycle;
  if (!o.save_state.empty()) {
    saveat = o.save_at > 0 ? o.save_at : cfg.warmup_cycles;
    if (saveat > end || saveat < sys.now()) {
      std::fprintf(stderr,
                   "rc-sim: --save-at %llu is outside the simulated span "
                   "[%llu, %llu]\n",
                   static_cast<unsigned long long>(saveat),
                   static_cast<unsigned long long>(sys.now()),
                   static_cast<unsigned long long>(end));
      std::exit(2);
    }
  }
  auto to = [&](Cycle t) {
    if (t > sys.now()) sys.run_cycles(t - sys.now());
  };
  auto do_save = [&]() {
    std::string serr;
    if (!save_snapshot(sys, o.save_state, &serr)) {
      std::fprintf(stderr, "rc-sim: --save-state %s: %s\n",
                   o.save_state.c_str(), serr.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "[rc-sim] saved state at cycle %llu to %s\n",
                 static_cast<unsigned long long>(sys.now()),
                 o.save_state.c_str());
  };

  // Same sequence as System::run, with snapshot stops spliced in. A save
  // landing exactly on the warm-up boundary happens *before* the stats
  // reset, so resuming such a snapshot replays the reset — byte-identical
  // to the uninterrupted run either way.
  sys.prewarm();
  if (sys.now() < cfg.warmup_cycles) {
    if (saveat < cfg.warmup_cycles) {
      to(saveat);
      do_save();
    }
    to(cfg.warmup_cycles);
  }
  if (sys.now() == cfg.warmup_cycles) {
    if (saveat == cfg.warmup_cycles) do_save();
    sys.reset_stats();
  }
  if (saveat != kNeverCycle && saveat > cfg.warmup_cycles) {
    to(saveat);
    do_save();
  }
  to(end);

  if (o.heatmap) print_heatmap(sys);
  return extract_result(sys, p.preset);
}

double acc(const RunResult& r, const char* k) {
  const Accumulator* a = r.net.find_acc(k);
  return a && a->count() ? a->mean() : 0.0;
}

void print_csv_header() {
  std::printf("preset,app,cores,cycles,ipc,energy_per_instr,"
              "reply_used,reply_failed,reply_undone,reply_eliminated,"
              "req_lat,rep_circ_lat,rep_circ_p95,rep_nocirc_lat,"
              "flits_injected\n");
}

void print_csv(const RunResult& r) {
  ReplyBreakdown b = reply_breakdown(r);
  const Histogram* h = r.net.find_hist("hist_rep_circ");
  std::printf("%s,%s,%d,%llu,%.5f,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f,%.2f,%.1f,"
              "%.2f,%llu\n",
              r.preset.c_str(), r.app.c_str(), r.cores,
              static_cast<unsigned long long>(r.cycles), r.ipc,
              r.energy_per_instr, b.used, b.failed, b.undone, b.eliminated,
              acc(r, "lat_net_req"), acc(r, "lat_net_rep_circ"),
              h ? h->percentile(0.95) : 0.0, acc(r, "lat_net_rep_nocirc"),
              static_cast<unsigned long long>(
                  r.net.counter_value("ni_inject_flit")));
}

void print_report(const RunResult& r) {
  ReplyBreakdown b = reply_breakdown(r);
  std::printf("\n%s on '%s' (%d cores, %llu measured cycles)\n",
              r.preset.c_str(), r.app.c_str(), r.cores,
              static_cast<unsigned long long>(r.cycles));
  Table t({"metric", "value"});
  t.add_row({"IPC per core", Table::num(r.ipc, 4)});
  t.add_row({"instructions retired", std::to_string(r.retired)});
  t.add_row({"network energy / instruction", Table::num(r.energy_per_instr, 4)});
  t.add_row({"request net latency", Table::num(acc(r, "lat_net_req"), 1)});
  t.add_row({"eligible-reply net latency",
             Table::num(acc(r, "lat_net_rep_circ"), 1)});
  const Histogram* h = r.net.find_hist("hist_rep_circ");
  if (h && h->count())
    t.add_row({"eligible-reply p95 (bucketed)",
               Table::num(h->percentile(0.95), 0)});
  t.add_row({"other-reply net latency",
             Table::num(acc(r, "lat_net_rep_nocirc"), 1)});
  t.add_row({"replies on circuit", Table::pct(b.used)});
  t.add_row({"reservation failed", Table::pct(b.failed)});
  t.add_row({"circuit undone", Table::pct(b.undone)});
  t.add_row({"scroungers", Table::pct(b.scrounged)});
  t.add_row({"ACKs eliminated", Table::pct(b.eliminated)});
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  SweepPoint p;
  p.mesh.clear();  // --mesh, else the square of --cores
  p.warmup = 10'000;
  p.cycles = 30'000;
  std::string square_mesh = "8x8";
  std::string err;
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "rc-sim: %s\n", why.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    const char* arg = argv[i];
    if (is_point_flag(arg)) {
      const char* v = point_flag_takes_value(arg) ? need(arg) : "";
      if (!set_point_flag(&p, arg, v, &err)) fail(err);
    } else if (!std::strcmp(arg, "--cores")) {
      const long long cores = flag_ll(arg, need(arg), 1);
      int side = 1;
      while (side < kMaxMeshSide && side * side < cores) ++side;
      if (side * side != cores)
        fail("--cores " + std::to_string(cores) + " is not a square of at " +
             "most " + std::to_string(kMaxMeshSide * kMaxMeshSide) +
             " cores (use --mesh WxH)");
      square_mesh = std::to_string(side) + "x" + std::to_string(side);
    }
    else if (!std::strcmp(arg, "--workload")) p.app = need(arg);
    else if (!std::strcmp(arg, "--heatmap")) o.heatmap = true;
    else if (!std::strcmp(arg, "--point-out")) o.point_out = need(arg);
    else if (!std::strcmp(arg, "--save-state")) o.save_state = need(arg);
    else if (!std::strcmp(arg, "--save-at"))
      o.save_at = static_cast<Cycle>(flag_ll(arg, need(arg), 1));
    else if (!std::strcmp(arg, "--load-state")) o.load_state = need(arg);
    else if (!std::strcmp(arg, "--csv")) o.csv = true;
    else if (!std::strcmp(arg, "--list")) list_and_exit();
    else if (!std::strcmp(arg, "--help")) usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown option %s\n", arg);
      usage(argv[0]);
    }
  }
  if (p.mesh.empty()) p.mesh = square_mesh;

  if (o.save_at > 0 && o.save_state.empty())
    fail("--save-at needs --save-state");
  if ((p.preset == "all" || p.app == "all") &&
      (!o.save_state.empty() || !o.load_state.empty() || !o.point_out.empty()))
    fail("--save-state, --load-state and --point-out run a single point; they "
         "cannot be combined with --preset all / --app all");

  // Expand "all" and check every point before the first one runs.
  std::vector<SweepPoint> points;
  for (const auto& preset :
       p.preset == "all" ? preset_names() : std::vector<std::string>{p.preset})
    for (const auto& app :
         p.app == "all" ? app_names() : std::vector<std::string>{p.app}) {
      SweepPoint q = p;
      q.preset = preset;
      q.app = app;
      if (!validate_point(q, &err)) fail(err);
      points.push_back(std::move(q));
    }

  // rc-dse subprocess mode: exactly one point, one atomic result file. The
  // driver treats "exit 0 AND result parses" as success, so any failure
  // path here must exit non-zero.
  if (!o.point_out.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r = run(o, p);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::string json =
        point_result_json(r, p.protocol, p.seed, p.warmup, wall) + "\n";
    if (!write_file_atomic(o.point_out, json, &err)) {
      std::fprintf(stderr, "cannot write %s: %s\n", o.point_out.c_str(),
                   err.c_str());
      return 2;
    }
    if (o.csv) {
      print_csv_header();
      print_csv(r);
    }
    return 0;
  }

  if (o.csv) print_csv_header();
  for (const SweepPoint& q : points) {
    std::fprintf(stderr, "[rc-sim] %s / %s ...\n", q.preset.c_str(),
                 q.app.c_str());
    RunResult r = run(o, q);
    if (o.csv)
      print_csv(r);
    else
      print_report(r);
  }
  return 0;
}
