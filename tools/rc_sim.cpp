// rc-sim: command-line front end for the Reactive Circuits CMP simulator.
//
//   rc-sim [options]
//     --cores N           16 or 64                     (default 64)
//     --preset NAME       NoC variant, or "all"        (default SlackDelay1_NoAck)
//     --app NAME          workload model, or "all"     (default fft)
//     --workload NAME     alias of --app
//     --protocol NAME     mesi|sparse-msi              (default mesi)
//     --dir-pointers N    sparse-directory sharer pointers per entry
//     --dir-sets N        sparse-directory sets per bank
//     --dir-ways N        sparse-directory ways
//     --warmup N          warm-up cycles               (default 10000)
//     --cycles N          measured cycles              (default 30000)
//     --seed N            simulation seed              (default 1)
//     --partition N       partition side, 0 = off      (default 0)
//     --topology NAME     mesh|torus|ring|cmesh        (default mesh)
//     --mc-placement NAME edge-middle|corner|diagonal  (default edge-middle)
//     --circuits N        circuits per input port override
//     --slack N           slack cycles/hop override
//     --buf-depth N       per-VC buffer depth in flits override
//     --no-l1tol1         L2-intermediary protocol variant
//     --save-state FILE   write a full-system snapshot (default: at the
//                         end of warm-up, before the stats reset)
//     --save-at N         take the snapshot at cycle N instead
//     --load-state FILE   resume from a snapshot; the configuration must
//                         match the snapshot's digest on every field except
//                         --cycles, shards and tick mode (a mismatch, or a
//                         snapshot that fails to load: exit 2)
//     --csv               machine-readable one-line-per-run output
//     --point-out FILE    single-point mode for rc-dse: write the run result
//                         as one JSON line to FILE (atomic rename)
//     --list              list presets and workloads, then exit
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "sim/dse.hpp"
#include "cpu/apps.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"

using namespace rc;

namespace {

struct Options {
  int cores = 64;
  std::string preset = "SlackDelay1_NoAck";
  std::string app = "fft";
  Cycle warmup = 10'000;
  Cycle cycles = 30'000;
  std::uint64_t seed = 1;
  int partition = 0;
  int circuits = -1;
  int slack = -1;
  int buf_depth = -1;  ///< per-VC buffer depth (rc-fuzz min-depth repros)
  int vcs_req = -1;  ///< VC-count overrides (rc-fuzz repro commands use them)
  int vcs_rep = -1;
  bool no_l1tol1 = false;
  bool csv = false;
  bool heatmap = false;
  int mesh_w = 0, mesh_h = 0;  ///< 0 = derive from --cores
  TopologyKind topology = TopologyKind::Mesh;
  McPlacement mc_placement = McPlacement::EdgeMiddle;
  Protocol protocol = Protocol::FullMapMESI;
  int dir_pointers = -1;  ///< sparse-directory overrides (-1 = defaults)
  int dir_sets = -1;
  int dir_ways = -1;
  std::string point_out;  ///< rc-dse subprocess mode: machine-readable result
  std::string save_state;  ///< snapshot output path ("" = off)
  Cycle save_at = 0;       ///< 0 = end of warm-up
  std::string load_state;  ///< snapshot to resume from ("" = off)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cores N] [--preset NAME|all] [--app NAME|all]\n"
               "          [--warmup N] [--cycles N] [--seed N] [--partition N]\n"
               "          [--circuits N] [--slack N] [--buf-depth N]\n"
               "          [--no-l1tol1] [--csv]\n"
               "          [--heatmap] [--mesh WxH]\n"
               "          [--topology mesh|torus|ring|cmesh]\n"
               "          [--mc-placement edge-middle|corner|diagonal]\n"
               "          [--protocol mesi|sparse-msi] [--workload NAME]\n"
               "          [--dir-pointers N] [--dir-sets N] [--dir-ways N]\n"
               "          [--vcs-req N] [--vcs-rep N] [--point-out FILE]\n"
               "          [--save-state FILE] [--save-at N]\n"
               "          [--load-state FILE] [--list]\n",
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

RunResult run(const Options& o, const std::string& preset,
              const std::string& app) {
  SystemConfig cfg = make_system_config(o.cores, preset, app, o.seed);
  if (o.mesh_w != 0 || o.mesh_h != 0) {
    cfg.noc.mesh_w = o.mesh_w;
    cfg.noc.mesh_h = o.mesh_h;
  }
  cfg.noc.topology = o.topology;
  cfg.noc.mc_placement = o.mc_placement;
  cfg.warmup_cycles = o.warmup;
  cfg.measure_cycles = o.cycles;
  cfg.partition_side = o.partition;
  if (o.circuits >= 0) cfg.noc.circuit.circuits_per_input = o.circuits;
  if (o.slack >= 0) cfg.noc.circuit.slack_per_hop = o.slack;
  if (o.buf_depth >= 1) cfg.noc.buffer_depth_flits = o.buf_depth;
  if (o.vcs_req > 0) cfg.noc.vcs_request_vn = o.vcs_req;
  if (o.vcs_rep > 0) cfg.noc.vcs_reply_vn = o.vcs_rep;
  cfg.cache.direct_l1_transfers = !o.no_l1tol1;
  cfg.protocol = o.protocol;
  if (o.dir_pointers > 0) cfg.cache.dir_pointers = o.dir_pointers;
  if (o.dir_sets > 0) cfg.cache.dir_sets = o.dir_sets;
  if (o.dir_ways > 0) cfg.cache.dir_ways = o.dir_ways;
  std::string err = cfg.validate();
  if (!err.empty()) {
    std::fprintf(stderr, "invalid configuration: %s\n", err.c_str());
    std::exit(2);
  }
  const bool manual =
      o.heatmap || !o.save_state.empty() || !o.load_state.empty();
  if (!manual) return run_config(cfg, preset);

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
  return extract_result(sys, preset);
}

void print_csv_header() {
  std::printf("preset,app,cores,cycles,ipc,energy_per_instr,"
              "reply_used,reply_failed,reply_undone,reply_eliminated,"
              "req_lat,rep_circ_lat,rep_circ_p95,rep_nocirc_lat,"
              "flits_injected\n");
}

void print_csv(const RunResult& r) {
  ReplyBreakdown b = reply_breakdown(r);
  auto acc = [&](const char* k) {
    const Accumulator* a = r.net.find_acc(k);
    return a && a->count() ? a->mean() : 0.0;
  };
  const Histogram* h = r.net.find_hist("hist_rep_circ");
  std::printf("%s,%s,%d,%llu,%.5f,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f,%.2f,%.1f,"
              "%.2f,%llu\n",
              r.preset.c_str(), r.app.c_str(), r.cores,
              static_cast<unsigned long long>(r.cycles), r.ipc,
              r.energy_per_instr, b.used, b.failed, b.undone, b.eliminated,
              acc("lat_net_req"), acc("lat_net_rep_circ"),
              h ? h->percentile(0.95) : 0.0, acc("lat_net_rep_nocirc"),
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
  auto acc = [&](const char* k) {
    const Accumulator* a = r.net.find_acc(k);
    return a && a->count() ? a->mean() : 0.0;
  };
  t.add_row({"request net latency", Table::num(acc("lat_net_req"), 1)});
  t.add_row({"eligible-reply net latency",
             Table::num(acc("lat_net_rep_circ"), 1)});
  const Histogram* h = r.net.find_hist("hist_rep_circ");
  if (h && h->count())
    t.add_row({"eligible-reply p95 (bucketed)",
               Table::num(h->percentile(0.95), 0)});
  t.add_row({"other-reply net latency",
             Table::num(acc("lat_net_rep_nocirc"), 1)});
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
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    // Numeric flags go through checked parsing: std::atoi-style silent
    // zero-on-garbage turned typos into nonsense runs.
    auto need_int = [&](const char* flag, long long min_v) -> long long {
      const char* v = need(flag);
      auto parsed = parse_ll(v);
      if (!parsed || *parsed < min_v) {
        std::fprintf(stderr, "%s: \"%s\" is not an integer >= %lld\n", flag, v,
                     min_v);
        std::exit(2);
      }
      return *parsed;
    };
    if (!std::strcmp(argv[i], "--cores"))
      o.cores = static_cast<int>(need_int("--cores", 1));
    else if (!std::strcmp(argv[i], "--preset")) o.preset = need("--preset");
    else if (!std::strcmp(argv[i], "--app")) o.app = need("--app");
    else if (!std::strcmp(argv[i], "--workload")) o.app = need("--workload");
    else if (!std::strcmp(argv[i], "--protocol")) {
      const char* v = need("--protocol");
      if (!protocol_from_string(v, &o.protocol)) {
        std::fprintf(stderr,
                     "--protocol: unknown variant \"%s\" (mesi|sparse-msi)\n",
                     v);
        std::exit(2);
      }
    }
    else if (!std::strcmp(argv[i], "--dir-pointers"))
      o.dir_pointers = static_cast<int>(need_int("--dir-pointers", 1));
    else if (!std::strcmp(argv[i], "--dir-sets"))
      o.dir_sets = static_cast<int>(need_int("--dir-sets", 1));
    else if (!std::strcmp(argv[i], "--dir-ways"))
      o.dir_ways = static_cast<int>(need_int("--dir-ways", 1));
    else if (!std::strcmp(argv[i], "--warmup"))
      o.warmup = static_cast<Cycle>(need_int("--warmup", 0));
    else if (!std::strcmp(argv[i], "--cycles"))
      o.cycles = static_cast<Cycle>(need_int("--cycles", 1));
    else if (!std::strcmp(argv[i], "--seed"))
      o.seed = static_cast<std::uint64_t>(need_int("--seed", 0));
    else if (!std::strcmp(argv[i], "--partition"))
      o.partition = static_cast<int>(need_int("--partition", 0));
    else if (!std::strcmp(argv[i], "--circuits"))
      o.circuits = static_cast<int>(need_int("--circuits", 0));
    else if (!std::strcmp(argv[i], "--slack"))
      o.slack = static_cast<int>(need_int("--slack", 0));
    else if (!std::strcmp(argv[i], "--buf-depth"))
      o.buf_depth = static_cast<int>(need_int("--buf-depth", 1));
    else if (!std::strcmp(argv[i], "--vcs-req"))
      o.vcs_req = static_cast<int>(need_int("--vcs-req", 1));
    else if (!std::strcmp(argv[i], "--vcs-rep"))
      o.vcs_rep = static_cast<int>(need_int("--vcs-rep", 1));
    else if (!std::strcmp(argv[i], "--no-l1tol1")) o.no_l1tol1 = true;
    else if (!std::strcmp(argv[i], "--heatmap")) o.heatmap = true;
    else if (!std::strcmp(argv[i], "--mesh")) {
      const char* v = need("--mesh");
      if (std::sscanf(v, "%dx%d", &o.mesh_w, &o.mesh_h) != 2) usage(argv[0]);
      if (o.mesh_w < 1 || o.mesh_h < 1) {
        std::fprintf(stderr, "--mesh: dimensions must be positive, got %s\n",
                     v);
        std::exit(2);
      }
    }
    else if (!std::strcmp(argv[i], "--topology")) {
      const char* v = need("--topology");
      if (!topology_from_string(v, &o.topology)) {
        std::fprintf(stderr,
                     "--topology: unknown kind \"%s\" "
                     "(mesh|torus|ring|cmesh)\n", v);
        std::exit(2);
      }
    }
    else if (!std::strcmp(argv[i], "--mc-placement")) {
      const char* v = need("--mc-placement");
      if (!mc_placement_from_string(v, &o.mc_placement)) {
        std::fprintf(stderr,
                     "--mc-placement: unknown policy \"%s\" "
                     "(edge-middle|corner|diagonal)\n", v);
        std::exit(2);
      }
    }
    else if (!std::strcmp(argv[i], "--point-out"))
      o.point_out = need("--point-out");
    else if (!std::strcmp(argv[i], "--save-state"))
      o.save_state = need("--save-state");
    else if (!std::strcmp(argv[i], "--save-at"))
      o.save_at = static_cast<Cycle>(need_int("--save-at", 1));
    else if (!std::strcmp(argv[i], "--load-state"))
      o.load_state = need("--load-state");
    else if (!std::strcmp(argv[i], "--csv")) o.csv = true;
    else if (!std::strcmp(argv[i], "--list")) list_and_exit();
    else if (!std::strcmp(argv[i], "--help")) usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      usage(argv[0]);
    }
  }

  if (o.save_at > 0 && o.save_state.empty()) {
    std::fprintf(stderr, "--save-at needs --save-state\n");
    return 2;
  }
  if ((!o.save_state.empty() || !o.load_state.empty()) &&
      (o.preset == "all" || o.app == "all")) {
    std::fprintf(stderr, "--save-state/--load-state run a single point; they "
                 "cannot be combined with --preset all / --app all\n");
    return 2;
  }

  std::vector<std::string> presets =
      o.preset == "all" ? preset_names() : std::vector<std::string>{o.preset};
  std::vector<std::string> apps =
      o.app == "all" ? app_names() : std::vector<std::string>{o.app};

  // rc-dse subprocess mode: exactly one point, one atomic result file. The
  // driver treats "exit 0 AND result parses" as success, so any failure
  // path here must exit non-zero.
  if (!o.point_out.empty()) {
    if (o.preset == "all" || o.app == "all") {
      std::fprintf(stderr, "--point-out runs a single point; it cannot be "
                   "combined with --preset all / --app all\n");
      return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r = run(o, o.preset, o.app);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::string json =
        point_result_json(r, to_string(o.protocol), o.seed, o.warmup, wall) +
        "\n";
    std::string err;
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
  for (const auto& p : presets) {
    for (const auto& a : apps) {
      std::fprintf(stderr, "[rc-sim] %s / %s ...\n", p.c_str(), a.c_str());
      RunResult r = run(o, p, a);
      if (o.csv)
        print_csv(r);
      else
        print_report(r);
    }
  }
  return 0;
}
