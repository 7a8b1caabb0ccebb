// bench-report: record the perf trajectory of the simulator.
//
// Runs the fixed workload set below (the single-run hot paths behind
// rc-repro's load sweep and bench_micro_router, plus one full-system run) with
// pinned cycle counts, and emits BENCH_<date>.json next to the current
// working directory: wall-clock, simulated cycles/sec, shard count and host
// CPU count per entry. Compare against BENCH_baseline.json (seeded from the
// pre-sharding serial engine) to spot regressions or wins.
//
// Usage: bench-report [shards...]   e.g. `bench-report 1 4` runs the whole
// set once per shard count and tags each result entry with it; with no
// arguments the shard count comes from RC_SHARDS (default 1).
//
//        bench-report --compare old.json new.json [--tolerance=<pct>]
// prints the per-benchmark speedup (new cycles/sec over old) for every
// (name, shards) pair present in both files, plus the geometric-mean
// speedup over all matched pairs, and exits non-zero when any matched pair
// regressed by more than the tolerance (default 10%).
//
// Knobs:
//   RC_SHARDS           worker shards when no argv given (default 1;
//                       "auto" = hw concurrency) — recorded per entry
//   RC_MEASURE_CYCLES   override each workload's measured cycles (default:
//                       the fixed per-workload counts BENCH_baseline.json
//                       was recorded with — leave unset for comparability)
//   RC_BENCH_COMMIT     free-form build identifier recorded in the JSON
//   RC_BENCH_NOTE       free-form caveat recorded in the JSON (e.g. host
//                       topology remarks)
//   RC_BENCH_OUT        output path (default BENCH_<yyyy-mm-dd>.json)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "common/shard.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"
#include "sim/telemetry.hpp"

using namespace rc;

namespace {

struct Entry {
  std::string name;
  double wall_s = 0;
  Cycle cycles = 0;
  int shards = 1;
  Protocol protocol = Protocol::FullMapMESI;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Entry bench_loadsweep(double rate, Cycle measure, int shards) {
  NocConfig cfg = make_system_config(64, "SlackDelay1_NoAck", "fft").noc;
  SyntheticTraffic t(cfg, rate, /*service=*/7, /*seed=*/1, shards);
  const Cycle warmup = 3'000;
  const double t0 = now_s();
  SyntheticResult r = t.run(warmup, measure);
  const double t1 = now_s();
  if (r.requests_done == 0) fatal("bench-report: load sweep injected nothing");
  char name[64];
  std::snprintf(name, sizeof name, "loadsweep_8x8_rate%.2f", rate);
  return Entry{name, t1 - t0, warmup + measure};
}

// Larger scaling points (16x16 = 256 nodes, 32x32 = 1024 nodes): the same
// synthetic sweep on the bigger meshes, so datapath regressions that only
// show past the 8x8 footprint (sharer spill, bigger hop counts, wider stat
// arrays) are tracked too, and multi-shard entries have enough parallel
// work per cycle to show real scaling.
Entry bench_loadsweep_big(int side, double rate, Cycle measure, int shards) {
  NocConfig cfg =
      make_system_config(side * side, "SlackDelay1_NoAck", "fft").noc;
  SyntheticTraffic t(cfg, rate, /*service=*/7, /*seed=*/1, shards);
  const Cycle warmup = 3'000;
  const double t0 = now_s();
  SyntheticResult r = t.run(warmup, measure);
  const double t1 = now_s();
  if (r.requests_done == 0) fatal("bench-report: load sweep injected nothing");
  char name[64];
  std::snprintf(name, sizeof name, "loadsweep_%dx%d_rate%.2f", side, side,
                rate);
  return Entry{name, t1 - t0, warmup + measure};
}

// Mirrors bench_micro_router's BM_LoadedNetworkTick at mesh 8: a raw fabric
// with one 1-flit request injected every 4th cycle. The injection plan is
// pre-generated from one RNG so the offered traffic is identical for any
// shard count; each node's injector sends the messages it sources.
Entry bench_micro_router(Cycle cycles, int shards) {
  NocConfig cfg;
  cfg.mesh_w = cfg.mesh_h = 8;
  Network net(cfg);
  net.set_deliver([](NodeId, const MsgPtr&) {});

  struct Injector : Ticker {
    Network* net = nullptr;
    std::vector<std::pair<Cycle, MsgPtr>> plan;  ///< (send cycle, message)
    std::size_t next = 0;
    void tick(Cycle now) {
      while (next < plan.size() && plan[next].first == now)
        net->send(plan[next++].second, now);
    }
    Cycle next_work(Cycle) const {
      return next < plan.size() ? plan[next].first : kNeverCycle;
    }
  };
  std::vector<Injector> inj(static_cast<std::size_t>(cfg.num_nodes()));
  for (Injector& i : inj) i.net = &net;
  Rng rng(7);
  std::uint64_t id = 0;
  for (Cycle c = 0; c < cycles; c += 4) {
    auto m = std::make_shared<Message>();
    m->id = ++id;
    m->type = MsgType::GetS;
    m->src = static_cast<NodeId>(rng.next_below(cfg.num_nodes()));
    m->dest = static_cast<NodeId>(rng.next_below(cfg.num_nodes()));
    m->addr = 64 * id;
    m->size_flits = flits_of(m->type);
    if (m->src != m->dest) inj[m->src].plan.emplace_back(c, std::move(m));
  }
  Engine engine;
  engine.build(net, shards, [&inj](ShardSchedule& s, const ShardRange& r) {
    for (NodeId i = r.begin; i < r.end; ++i) s.add(&inj[i], "injector");
  });

  const double t0 = now_s();
  engine.run(cycles);
  const double t1 = now_s();
  return Entry{"micro_router_loaded_8x8", t1 - t0, cycles};
}

Entry bench_system(Cycle measure, int shards,
                   Protocol proto = Protocol::FullMapMESI) {
  SystemConfig cfg = make_system_config(64, "SlackDelay1_NoAck", "fft", 1);
  const Cycle warmup = 5'000;
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  cfg.shards = shards;
  cfg.protocol = proto;
  const double t0 = now_s();
  RunResult r = run_config(cfg, "SlackDelay1_NoAck");
  const double t1 = now_s();
  if (r.retired == 0) fatal("bench-report: system run retired nothing");
  const char* name = proto == Protocol::FullMapMESI ? "system_8x8_fft"
                                                    : "system_8x8_fft_sparse";
  return Entry{name, t1 - t0, warmup + measure, /*shards=*/1, proto};
}

// ---- --compare mode ------------------------------------------------------

struct CmpEntry {
  std::string name;
  int shards = 1;
  double cps = 0;  ///< cycles per second
};

/// Reader errors are user-facing (bad path on the command line, a corrupt
/// artifact): report and exit 2. fatal() throws, and an uncaught FatalError
/// aborts — the wrong exit for "your input file is bad".
[[noreturn]] void die2(const std::string& msg) {
  std::fprintf(stderr, "bench-report: %s\n", msg.c_str());
  std::exit(2);
}

std::string trim(const char* s) {
  std::string t = s;
  while (!t.empty() && (t.back() == '\n' || t.back() == '\r' ||
                        t.back() == ' ' || t.back() == '\t'))
    t.pop_back();
  std::size_t b = 0;
  while (b < t.size() && (t[b] == ' ' || t[b] == '\t')) ++b;
  return t.substr(b);
}

/// Parse the result lines of a bench-report JSON file. This reads only the
/// format this tool itself writes (one result object per line), so a
/// line-oriented sscanf is sufficient — no JSON library in the toolchain.
/// It is strict about shape: once inside the "results" array every line
/// must be a well-formed entry, and the array (and the document) must be
/// properly closed. A truncated or garbage file names itself and exits 2
/// instead of silently comparing whatever lines happened to match.
std::vector<CmpEntry> load_report(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) die2("cannot read " + path);
  std::vector<CmpEntry> out;
  char line[512];
  int line_no = 0;
  bool in_results = false;     ///< saw the "results": [ opener
  bool results_closed = false; ///< saw the matching ]
  bool doc_closed = false;     ///< saw the final }
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++line_no;
    const std::string t = trim(line);
    if (!in_results) {
      // Header lines (date, commit, notes...) pass untouched; only the
      // results array has a shape we depend on.
      if (t == "\"results\": [") in_results = true;
      if (t == "\"results\": []" || t == "\"results\": [],")
        in_results = results_closed = true;
      continue;
    }
    if (results_closed) {
      if (t == "}") doc_closed = true;
      continue;
    }
    if (t == "]" || t == "],") {
      results_closed = true;
      continue;
    }
    char name[128];
    int shards = 0;
    double wall = 0;
    unsigned long long cycles = 0;
    double cps = 0;
    if (std::sscanf(line,
                    " {\"name\": \"%127[^\"]\", \"shards\": %d, "
                    "\"wall_s\": %lf, \"cycles\": %llu, "
                    "\"cycles_per_sec\": %lf}",
                    name, &shards, &wall, &cycles, &cps) != 5)
      die2(path + ":" + std::to_string(line_no) +
           ": malformed result entry (corrupt or truncated report)");
    out.push_back(CmpEntry{name, shards, cps});
  }
  if (std::ferror(f)) die2("I/O error reading " + path);
  std::fclose(f);
  if (!in_results)
    die2(path + ": not a bench-report file (no \"results\" array)");
  if (!results_closed || !doc_closed)
    die2(path + ": truncated report (file ends inside the \"results\" "
                "array or before the closing brace)");
  if (out.empty()) die2("no result entries in " + path);
  return out;
}

int run_compare(const std::string& old_path, const std::string& new_path,
                double tolerance_pct) {
  const auto olds = load_report(old_path);
  const auto news = load_report(new_path);
  // A drop in simulated cycles/sec at the same shard count beyond the
  // tolerance is a regression; anything milder is host noise territory.
  const double floor = 1.0 - tolerance_pct / 100.0;
  std::printf("%-28s %7s %12s %12s %9s\n", "benchmark", "shards",
              "old cyc/s", "new cyc/s", "speedup");
  bool regressed = false;
  int matched = 0;
  double log_sum = 0;
  for (const CmpEntry& o : olds) {
    for (const CmpEntry& n : news) {
      if (n.name != o.name || n.shards != o.shards) continue;
      ++matched;
      const double speedup = o.cps > 0 ? n.cps / o.cps : 0;
      const bool bad = speedup < floor;
      if (bad) regressed = true;
      if (speedup > 0) log_sum += std::log(speedup);
      std::printf("%-28s %7d %12.0f %12.0f %8.2fx%s\n", o.name.c_str(),
                  o.shards, o.cps, n.cps, speedup,
                  bad ? "  REGRESSION" : "");
      break;
    }
  }
  if (matched == 0)
    fatal("bench-report: no (name, shards) pair present in both files");
  std::printf("geomean speedup over %d benchmark(s): %.2fx\n", matched,
              std::exp(log_sum / matched));
  if (regressed) {
    std::fprintf(stderr,
                 "bench-report: at least one benchmark regressed by >%g%%\n",
                 tolerance_pct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--compare") {
    // Optional --tolerance=<pct> after the two paths tunes the regression
    // gate (default 10: flag any matched pair slower than 0.90x).
    double tolerance_pct = 10.0;
    if (argc == 5) {
      const std::string t = argv[4];
      const std::string prefix = "--tolerance=";
      bool ok = t.rfind(prefix, 0) == 0 && t.size() > prefix.size();
      if (ok) {
        const std::string num = t.substr(prefix.size());
        char* end = nullptr;
        tolerance_pct = std::strtod(num.c_str(), &end);
        ok = end && *end == '\0' && tolerance_pct >= 0 && tolerance_pct < 100;
      }
      if (!ok)
        fatal("bench-report: bad tolerance '" + t +
              "' (want --tolerance=<pct> with 0 <= pct < 100)");
    } else if (argc != 4) {
      fatal("usage: bench-report --compare old.json new.json "
            "[--tolerance=<pct>]");
    }
    return run_compare(argv[2], argv[3], tolerance_pct);
  }
  const int host_cpus = allowed_cpus();
  // 64-node workloads throughout; with no argv, resolve RC_SHARDS the way
  // the simulation runs do.
  std::vector<int> shard_counts;
  for (int i = 1; i < argc; ++i) {
    const auto v = parse_ll(argv[i]);
    if (!v || *v < 1 || *v > 64)
      fatal("bench-report: bad shard count '" + std::string(argv[i]) + "'");
    shard_counts.push_back(static_cast<int>(*v));
  }
  if (shard_counts.empty()) shard_counts.push_back(effective_shards(0, 64));

  std::vector<Entry> results;
  for (int shards : shard_counts) {
    auto add = [&](Entry e) {
      e.shards = shards;
      results.push_back(std::move(e));
    };
    add(bench_loadsweep(0.04, env_measure_cycles(12'000), shards));
    add(bench_loadsweep(0.08, env_measure_cycles(12'000), shards));
    add(bench_loadsweep_big(16, 0.04, env_measure_cycles(6'000), shards));
    add(bench_loadsweep_big(32, 0.04, env_measure_cycles(3'000), shards));
    add(bench_micro_router(env_measure_cycles(200'000), shards));
    add(bench_system(env_measure_cycles(20'000), shards));
    // Same full-system point under the sparse-directory MSI variant: tracks
    // the cost of the separate directory lookups and recall storms.
    add(bench_system(env_measure_cycles(20'000), shards,
                     Protocol::SparseMSI));
  }

  char date[32] = "unknown";
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  if (localtime_r(&t, &tm) != nullptr)
    std::strftime(date, sizeof date, "%Y-%m-%d", &tm);

  // Multi-shard numbers recorded on a single hardware thread measure
  // scheduling overhead, not scaling — flag them loudly (and in the JSON)
  // so a later --compare is not read as a parallel-speedup claim.
  bool oversubscribed = false;
  for (int s : shard_counts) oversubscribed |= s > host_cpus;
  if (oversubscribed)
    std::fprintf(stderr,
                 "bench-report: WARNING: shard count exceeds host_cpus=%d; "
                 "multi-shard entries measure oversubscribed scheduling, "
                 "not parallel scaling\n",
                 host_cpus);

  const char* commit = std::getenv("RC_BENCH_COMMIT");
  // Default the recorded commit to the current git HEAD so artifacts are
  // attributable without relying on the caller to export RC_BENCH_COMMIT.
  std::string commit_s = commit ? commit : "";
  if (commit_s.empty()) {
    if (std::FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
      char buf[64] = {0};
      if (std::fgets(buf, sizeof buf, p) != nullptr) {
        commit_s = buf;
        while (!commit_s.empty() &&
               (commit_s.back() == '\n' || commit_s.back() == '\r'))
          commit_s.pop_back();
      }
      pclose(p);
    }
    if (commit_s.empty()) commit_s = "unknown";
  }
  const char* out_env = std::getenv("RC_BENCH_OUT");
  const std::string out_path =
      out_env ? out_env : ("BENCH_" + std::string(date) + ".json");

  std::string json = "{\n";
  json += "  \"date\": \"" + std::string(date) + "\",\n";
  json += "  \"commit\": \"" + commit_s + "\",\n";
  json += "  \"host_cpus\": " + std::to_string(host_cpus) + ",\n";
  if (oversubscribed)
    json += "  \"oversubscribed\": true,\n";
  // Tracing attaches an observer to every run above; a perf artifact that
  // silently included that overhead would poison baseline comparisons, so
  // record whether it was on.
  json += std::string("  \"telemetry_enabled\": ") +
          (Telemetry::enabled_by_env() ? "true" : "false") + ",\n";
  if (const char* note = std::getenv("RC_BENCH_NOTE"))
    json += "  \"note\": \"" + std::string(note) + "\",\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Entry& e = results[i];
    char line[256];
    // The trailing protocol field is invisible to load_report's sscanf
    // (all five matched conversions come first), so old and new report
    // files stay mutually comparable.
    std::snprintf(line, sizeof line,
                  "    {\"name\": \"%s\", \"shards\": %d, \"wall_s\": %.4f, "
                  "\"cycles\": %llu, \"cycles_per_sec\": %.0f, "
                  "\"protocol\": \"%s\"}%s\n",
                  e.name.c_str(), e.shards, e.wall_s,
                  static_cast<unsigned long long>(e.cycles),
                  static_cast<double>(e.cycles) / e.wall_s,
                  to_string(e.protocol),
                  i + 1 < results.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  // Temp-then-rename with checked close: a full disk or a crash must never
  // replace the previous report with a half-written one (exactly the
  // truncation load_report above refuses to read).
  std::string werr;
  if (!write_file_atomic(out_path, json, &werr))
    die2("cannot write " + out_path + ": " + werr);
  std::fputs(json.c_str(), stdout);
  std::fprintf(stdout, "wrote %s\n", out_path.c_str());
  return 0;
}
