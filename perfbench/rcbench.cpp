// rcbench — one benchmark workload, single-threaded, in its own process.
//
//   rcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--quick] [--plant-mismatch]
//   rcbench --curve <side>
//
// A timed run (--trace 0) repeats whole design points ("reps": construct,
// warm up, measure a fixed number of cycles, extract) until the time budget
// is spent, checks every rep's stats digest against the first rep's, and
// prints the end-to-end metrics as medians over reps. A traced run
// (--trace 1) prints the per-layer metrics instead: spans around each
// library call, work counts from the merged StatSets, a bare-Network driver
// that must reproduce the library driver's stats, and (light fabric only) a
// two-shard run that must reproduce the one-shard digest.
//
// The last stdout line is {"correct","attempted","failed","metrics"}; the
// line before it is the workload's record: load regime, saturation stamp
// and stats digest. --curve prints one JSON line per injection rate for the
// latency-vs-rate curve of a side x side mesh (the data in regimes.json).
//
// Only public library entry points are used: SyntheticTraffic, System
// (prewarm, run_cycles, reset_stats), extract_result, Network
// (send/tick/merged_stats) and System::merged_sys_stats.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "noc/network.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"
#include "sim/system.hpp"

using namespace rc;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kServiceCycles = 7;  // echo service time, like an L2 hit
constexpr int kReplyFlits = 5;
/// Mean reply queueing in the source NI above which a point is stamped
/// saturated. Unsaturated points queue a few cycles at most; past the knee
/// the backlog grows to hundreds or thousands of cycles.
constexpr double kSaturatedQueueCycles = 20.0;
constexpr const char* kFabricPreset = "SlackDelay1_NoAck";

enum class Kind { Fabric, Cmp };

struct Workload {
  const char* name;
  Kind kind;
  int nodes;
  double rate;   // fabric: requests per node per cycle
  Cycle warmup;  // simulated, part of setup
  Cycle measure;
  const char* regime;
  bool shard_check;  // traced run also runs 2 shards (fabric only)
};

// Rep sizes keep every timed phase at a few hundred milliseconds or more.
const Workload kWorkloads[] = {
    {"fabric_16x16_light", Kind::Fabric, 256, 0.005, 8'000, 40'000, "light",
     true},
    {"fabric_8x8_saturated", Kind::Fabric, 64, 0.08, 5'000, 15'000,
     "saturated-stress", false},
    {"cmp_8x8_canneal_baseline", Kind::Cmp, 64, 0, 10'000, 100'000,
     "full-system", false},
};

/// The library seed is a mix of the benchmark seed, so that nearby seeds
/// (0 and 1 collide in Rng) give unrelated inputs.
std::uint64_t mix_seed(std::uint64_t s) {
  s += 0x9e3779b97f4a7c15ull;
  s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ull;
  s = (s ^ (s >> 27)) * 0x94d049bb133111ebull;
  return s ^ (s >> 31);
}

NocConfig fabric_config(const Workload& w) {
  return make_system_config(w.nodes, kFabricPreset, "fft").noc;
}

SystemConfig cmp_config(const Workload& w, std::uint64_t seed) {
  SystemConfig cfg = make_system_config(w.nodes, "Baseline", "canneal", seed);
  cfg.shards = 1;
  cfg.warmup_cycles = w.warmup;
  cfg.measure_cycles = w.measure;
  return cfg;
}

// ---- stats helpers -------------------------------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  void str(const std::string& s) { bytes(s.data(), s.size() + 1); }
  template <class T>
  void pod(T v) { bytes(&v, sizeof v); }
};

void digest_stats(Fnv& f, const StatSet& s) {
  for (const auto& [k, v] : s.counters()) f.str(k), f.pod(v);
  for (const auto& [k, a] : s.accumulators()) {
    f.str(k);
    f.pod(a.count()), f.pod(a.sum()), f.pod(a.min()), f.pod(a.max());
    f.pod(a.variance());
  }
  for (const auto& [k, h] : s.histograms()) {
    f.str(k);
    f.bytes(h.buckets(), sizeof(std::uint64_t) * Histogram::kBuckets);
  }
}

double ctr(const StatSet& s, const char* k) {
  return static_cast<double>(s.counter_value(k));
}

double mean_of(const StatSet& s, const char* k) {
  const Accumulator* a = s.find_acc(k);
  return a && a->count() ? a->mean() : 0.0;
}

/// Percentile of a power-of-two Histogram, interpolated linearly inside the
/// bucket that holds it (Histogram::percentile answers the bucket's upper
/// edge, which jumps by 2x between seeds that straddle an edge).
double hist_percentile(const StatSet& s, const char* k, double frac) {
  const Histogram* h = s.find_hist(k);
  if (!h || h->count() == 0) return 0.0;
  const double target = frac * static_cast<double>(h->count());
  double seen = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const double b = static_cast<double>(h->buckets()[i]);
    if (b == 0) continue;
    if (seen + b >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
      const double hi = i == 0 ? 1.0 : std::ldexp(1.0, i);
      return lo + (hi - lo) * (target - seen) / b;
    }
    seen += b;
  }
  return 0.0;
}

/// Replies that did not ride a circuit / circuit-eligible replies: one minus
/// SyntheticResult::circuit_use (Fig. 6). 1 when circuits are off.
double circuit_miss_frac(const StatSet& net) {
  const double on = ctr(net, "reply_used") + ctr(net, "reply_partial");
  const double eligible = on + ctr(net, "reply_failed") +
                          ctr(net, "reply_undone") +
                          ctr(net, "reply_eligible_nocirc");
  return eligible > 0 ? (eligible - on) / eligible : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- spans ---------------------------------------------------------------

/// In-memory span log: name, parent, start and end relative to the run's
/// start. Written to stderr when a traced run ends.
class Spans {
 public:
  template <class F>
  void time(const std::string& name, F&& f) {
    const int id = static_cast<int>(log_.size());
    log_.push_back({name, stack_.empty() ? -1 : stack_.back(), now(), 0.0});
    stack_.push_back(id);
    f();
    stack_.pop_back();
    log_[id].end = now();
  }
  /// Total duration of every span called `name`.
  double total(const std::string& name) const {
    double t = 0;
    for (const Span& s : log_)
      if (s.name == name) t += s.end - s.start;
    return t;
  }
  void dump() const {
    for (const Span& s : log_)
      std::fprintf(stderr,
                   "{\"span\": \"%s\", \"parent\": \"%s\", \"start_s\": %.6f, "
                   "\"dur_s\": %.6f}\n",
                   s.name.c_str(),
                   s.parent < 0 ? "" : log_[s.parent].name.c_str(), s.start,
                   s.end - s.start);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start, end;
  };
  double now() const { return since(origin_); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> log_;
  std::vector<int> stack_;
};

// ---- one design point ----------------------------------------------------

struct Rep {
  double construct_s = 0, prewarm_s = 0, warmup_s = 0, measure_s = 0,
         extract_s = 0;
  StatSet net, sys;
  std::uint64_t ops = 0;  // delivered replies (fabric) / retired instrs (cmp)
  double energy_per_instr = 0;
  std::uint64_t digest = 0;
  double setup_s() const { return construct_s + prewarm_s + warmup_s; }
  double total_s() const { return setup_s() + measure_s + extract_s; }
};

struct Send {
  Cycle at;
  Message msg;
};

void finish_digest(Rep& r) {
  Fnv f;
  digest_stats(f, r.net);
  digest_stats(f, r.sys);
  f.pod(r.ops);
  r.digest = f.h;
}

/// Fabric point through SyntheticTraffic. run(warmup, 0) then run(0, measure)
/// is the same simulation as run(warmup, measure), split so that the warm-up
/// is timed as set-up. The final merge of network stats happens inside the
/// second run() and is timed with the measured window.
Rep fabric_rep(const Workload& w, std::uint64_t seed, int shards,
               Spans& sp) {
  Rep r;
  std::unique_ptr<SyntheticTraffic> st;
  SyntheticResult res;
  sp.time("sim.construct", [&] {
    st = std::make_unique<SyntheticTraffic>(fabric_config(w), w.rate,
                                            kServiceCycles, seed, shards);
  });
  sp.time("sim.warmup", [&] { st->run(w.warmup, 0); });
  sp.time("sim.measure", [&] { res = st->run(0, w.measure); });
  r.net = std::move(res.net);
  r.ops = r.net.counter_value("msg_L2Reply");
  return r;
}

/// Full-CMP point. With `sends` set, every message handed to the fabric in
/// the measured window is copied out (cycle relative to the window start).
Rep cmp_rep(const Workload& w, std::uint64_t seed, Spans& sp,
            std::vector<Send>* sends = nullptr) {
  Rep r;
  const SystemConfig cfg = cmp_config(w, seed);
  std::unique_ptr<System> sys;
  RunResult rr;
  sp.time("sim.construct", [&] { sys = std::make_unique<System>(cfg); });
  sp.time("sim.prewarm", [&] { sys->prewarm(); });
  sp.time("sim.warmup", [&] {
    sys->run_cycles(w.warmup);
    sys->reset_stats();
  });
  if (sends)
    sys->network().set_send_observer(
        [sends, base = sys->now()](const MsgPtr& m, Cycle now) {
          sends->push_back({now - base, *m});
        });
  sp.time("sim.measure", [&] { sys->run_cycles(w.measure); });
  if (sends) sys->network().set_send_observer(nullptr);
  sp.time("sim.extract", [&] { rr = extract_result(*sys, w.name); });
  r.net = std::move(rr.net);
  r.sys = std::move(rr.sys);
  r.ops = rr.retired;
  r.energy_per_instr = rr.energy_per_instr;
  if (sends) {
    sp.time("common.stats_merge", [&] {
      StatSet a = sys->network().merged_stats();
      StatSet b = sys->merged_sys_stats();
      if (!(a == r.net && b == r.sys))
        throw std::runtime_error("merged stats changed after extraction");
    });
  }
  return r;
}

/// One rep, timed into `sp`, which must hold no earlier rep's spans.
Rep run_rep(const Workload& w, std::uint64_t seed, Spans& sp,
            std::vector<Send>* sends = nullptr) {
  Rep r;
  sp.time("rep", [&] {
    r = w.kind == Kind::Fabric ? fabric_rep(w, seed, 1, sp)
                               : cmp_rep(w, seed, sp, sends);
  });
  r.construct_s = sp.total("sim.construct");
  r.prewarm_s = sp.total("sim.prewarm");
  r.warmup_s = sp.total("sim.warmup");
  r.measure_s = sp.total("sim.measure");
  r.extract_s = sp.total("sim.extract");
  finish_digest(r);
  return r;
}

// ---- bare-Network drivers --------------------------------------------------

/// SyntheticTraffic's request/echo protocol re-implemented over a bare
/// Network driven by Network::send/tick: the same per-node Rng::fork draws,
/// message ids, addresses and service time, and the same per-cycle order
/// (node drivers, then the fabric), so its merged stats must equal the
/// library driver's exactly.
class EchoDriver {
 public:
  EchoDriver(const NocConfig& cfg, double rate, std::uint64_t seed)
      : net_(cfg), rate_(rate), n_(cfg.num_nodes()) {
    Rng root(seed);
    nodes_.resize(static_cast<std::size_t>(n_));
    for (NodeId i = 0; i < n_; ++i) {
      nodes_[i].rng = root.fork(i + 1);
      draw_next(nodes_[i], 0);
    }
    net_.set_deliver([this](NodeId node, const MsgPtr& m) {
      if (m->type != MsgType::GetS) return;
      Node& st = nodes_[node];
      auto rep = std::make_shared<Message>();
      rep->id = (static_cast<std::uint64_t>(node) << 40) | ++st.next_id;
      rep->type = MsgType::L2Reply;
      rep->src = node;
      rep->dest = m->src;
      rep->addr = m->addr;
      rep->size_flits = kReplyFlits;
      st.pending.emplace(m->delivered + kServiceCycles, rep);
    });
  }

  /// Advance `cycles` cycles; returns host seconds spent in Network::tick.
  double run(Cycle cycles) {
    double tick_s = 0;
    for (const Cycle end = now_ + cycles; now_ < end; ++now_) {
      for (NodeId i = 0; i < n_; ++i) step(i);
      const auto t0 = Clock::now();
      net_.tick(now_);
      tick_s += since(t0);
    }
    return tick_s;
  }

  Network& net() { return net_; }

 private:
  struct Node {
    Rng rng;
    std::uint64_t next_id = 0, next_addr = 0;
    Cycle next_inject = 0;
    std::multimap<Cycle, MsgPtr> pending;
  };

  void draw_next(Node& st, Cycle c) {
    while (!st.rng.chance(rate_)) ++c;
    st.next_inject = c;
  }

  void step(NodeId i) {
    Node& st = nodes_[i];
    while (!st.pending.empty() && st.pending.begin()->first <= now_) {
      net_.send(st.pending.begin()->second, now_);
      st.pending.erase(st.pending.begin());
    }
    if (st.next_inject != now_) return;
    const NodeId dest = static_cast<NodeId>(st.rng.next_below(n_));
    if (dest != i) {
      auto req = std::make_shared<Message>();
      req->id = (static_cast<std::uint64_t>(i) << 40) | ++st.next_id;
      req->type = MsgType::GetS;
      req->src = i;
      req->dest = dest;
      req->addr = ((static_cast<Addr>(i) << 32) + ++st.next_addr) * kLineBytes;
      req->size_flits = 1;
      net_.send(req, now_);
    }
    draw_next(st, now_ + 1);
  }

  Network net_;
  double rate_;
  NodeId n_;
  Cycle now_ = 0;
  std::vector<Node> nodes_;
};

/// Replays a recorded send trace open-loop into a bare Network; returns host
/// seconds spent in Network::tick.
double replay(const NocConfig& cfg, const std::vector<Send>& sends,
              Cycle cycles, StatSet* stats) {
  Network net(cfg);
  net.set_deliver([](NodeId, const MsgPtr&) {});
  double tick_s = 0;
  std::size_t next = 0;
  for (Cycle c = 0; c < cycles; ++c) {
    for (; next < sends.size() && sends[next].at == c; ++next)
      net.send(std::make_shared<Message>(sends[next].msg), c);
    const auto t0 = Clock::now();
    net.tick(c);
    tick_s += since(t0);
  }
  *stats = net.merged_stats();
  return tick_s;
}

// ---- output --------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// The workload's record: its regime, the saturation stamp, and the digest
/// of the merged simulated stats of its first rep.
void print_record(const Workload& w, const Rep& r) {
  const double q = mean_of(r.net, "q_lat_reply");
  std::printf(
      "{\"workload\": \"%s\", \"regime\": \"%s\", \"nodes\": %d, "
      "\"rate\": %g, \"reply_queue_cycles\": %.3f, "
      "\"saturated_bound_cycles\": %g, \"saturated\": %s, "
      "\"digest\": \"%016llx\"}\n",
      w.name, w.regime, w.nodes, w.rate, q, kSaturatedQueueCycles,
      q > kSaturatedQueueCycles ? "true" : "false",
      static_cast<unsigned long long>(r.digest));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- modes ---------------------------------------------------------------

/// CPUs this process may run on. A single-threaded process otherwise stays
/// on one CPU for its whole life, and on a shared host one CPU can run
/// 30-80% slower than another for minutes; timed reps therefore rotate over
/// all of them, so a run's median samples every CPU alike.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    std::fprintf(stderr, "rcbench: cannot pin to CPU %d\n", cpu);
}

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool quick = false;           // 1/10 windows, for the self-tests
  bool plant_mismatch = false;  // corrupt rep 2's digest, for the self-tests
  int curve_side = 0;
};

/// Checks a rep against the first rep of the run: it completed (else the
/// caller caught), did nonzero work, and reproduced the first digest.
bool rep_ok(const Rep& r, const Rep& first) {
  return r.ops > 0 && r.digest == first.digest;
}

int timed_run(const Options& o, const Workload& w) {
  const std::uint64_t seed = mix_seed(o.seed);
  const auto t0 = Clock::now();
  std::vector<Rep> reps;
  std::optional<Rep> first;
  int attempted = 0, failed = 0;
  std::vector<double> rep_s;
  const std::vector<int> cpus = allowed_cpus();
  for (;;) {
    const auto r0 = Clock::now();
    const int cpu = cpus.empty() ? -1 : cpus[attempted % cpus.size()];
    if (cpu >= 0) pin_to(cpu);
    ++attempted;
    try {
      Spans sp;
      Rep r = run_rep(w, seed, sp);
      std::fprintf(stderr,
                   "{\"rep\": %d, \"cpu\": %d, \"setup_s\": %.6f, "
                   "\"measure_s\": %.6f, \"total_s\": %.6f}\n",
                   attempted, cpu, r.setup_s(), r.measure_s, r.total_s());
      if (o.plant_mismatch && attempted == 2) r.digest ^= 1;
      if (!first) first = r;
      if (rep_ok(r, *first))
        reps.push_back(std::move(r));
      else
        ++failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rep %d failed: %s\n", attempted, e.what());
      ++failed;
    }
    rep_s.push_back(since(r0));
    if (attempted >= 3 && since(t0) + median(rep_s) > o.seconds) break;
  }
  if (reps.empty()) {
    std::fprintf(stderr, "no rep completed\n");
    return 1;
  }
  const Rep& ref = reps.front();
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return median(v);
  };
  const double cycles = static_cast<double>(w.measure);
  const double measure_s = med([](const Rep& r) { return r.measure_s; });
  print_record(w, ref);
  print_result(
      failed == 0, attempted, failed,
      {{"sim_cycles_per_s", "1/s", cycles / measure_s},
       {"sim_ops_per_s", "1/s", static_cast<double>(ref.ops) / measure_s},
       {"setup_s", "s", med([](const Rep& r) { return r.setup_s(); })},
       {"time_to_result_s", "s",
        med([](const Rep& r) { return r.total_s(); })},
       {"peak_rss_mb", "MB", peak_rss_mb()},
       {"sim_ops_per_cycle", "1/cycle", static_cast<double>(ref.ops) / cycles},
       {"reply_latency_cycles", "cycles", mean_of(ref.net, "lat_net_rep_circ")},
       {"reply_latency_p99_cycles", "cycles",
        hist_percentile(ref.net, "hist_rep_circ", 0.99)},
       {"circuit_miss_frac", "frac", circuit_miss_frac(ref.net)},
       {"pass_frac", "frac",
        static_cast<double>(attempted - failed) / attempted}});
  return failed == 0 ? 0 : 1;
}

int traced_run(const Options& o, const Workload& w) {
  const std::uint64_t seed = mix_seed(o.seed);
  int attempted = 0, failed = 0;
  auto check = [&](bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what);
    }
  };
  // Untraced reference reps: the overhead baseline and the digest reference.
  std::vector<double> plain_s;
  std::optional<Rep> first;
  for (int i = 0; i < 2; ++i) {
    Spans scratch;
    Rep r = run_rep(w, seed, scratch);
    if (!first) first = r;
    check(rep_ok(r, *first), "untraced rep digest");
    plain_s.push_back(scratch.total("rep"));
  }

  Spans sp;
  std::vector<Send> sends;
  Rep t = run_rep(w, seed, sp, w.kind == Kind::Cmp ? &sends : nullptr);
  check(rep_ok(t, *first), "traced rep digest");

  const double cycles = static_cast<double>(w.measure);
  double noc_tick_s = 0, merge_s = 0, shard2_speedup = 0;
  StatSet bare;  // stats of the bare-Network run
  if (w.kind == Kind::Fabric) {
    EchoDriver echo(fabric_config(w), w.rate, seed);
    sp.time("noc.echo", [&] {
      echo.run(w.warmup);
      echo.net().reset_stats();
      noc_tick_s = echo.run(w.measure);
    });
    sp.time("common.stats_merge", [&] { bare = echo.net().merged_stats(); });
    merge_s = sp.total("common.stats_merge");
    check(bare == t.net, "echo driver reproduces SyntheticTraffic stats");
    if (w.shard_check) {
      Spans s2;
      Rep two;
      sp.time("sim.shards2", [&] { two = fabric_rep(w, seed, 2, s2); });
      finish_digest(two);
      check(two.digest == t.digest, "2-shard digest equals 1-shard digest");
      shard2_speedup = t.measure_s / s2.total("sim.measure");
    }
  } else {
    sp.time("noc.replay", [&] {
      noc_tick_s = replay(cmp_config(w, seed).noc, sends, w.measure, &bare);
    });
    merge_s = sp.total("common.stats_merge");
  }
  const double traced_s = sp.total("rep");
  const double hops = ctr(bare, "link_flit");
  const StatSet& n = t.net;
  const StatSet& s = t.sys;
  const double retired = w.kind == Kind::Cmp ? static_cast<double>(t.ops) : 0;
  const double l1 = ctr(s, "l1_read_hit") + ctr(s, "l1_read_miss") +
                    ctr(s, "l1_write_hit") + ctr(s, "l1_write_miss");
  const double res = ctr(n, "circ_reservations");
  sp.dump();
  print_record(w, t);
  print_result(
      failed == 0, attempted, failed,
      {{"sim.construct_s", "s", t.construct_s},
       {"sim.prewarm_s", "s", t.prewarm_s},
       {"sim.warmup_s", "s", t.warmup_s},
       {"sim.measure_s", "s", t.measure_s},
       {"sim.host_ns_per_node_cycle", "ns",
        t.measure_s * 1e9 / (cycles * w.nodes)},
       {"sim.extract_s", "s", w.kind == Kind::Cmp ? t.extract_s : merge_s},
       {"common.stats_merge_s", "s", merge_s},
       {"common.shard2_speedup", "x", shard2_speedup},
       {"noc.tick_s", "s", noc_tick_s},
       {"noc.ns_per_flit_hop", "ns", hops > 0 ? noc_tick_s * 1e9 / hops : 0},
       {"noc.flit_hops", "count", ctr(n, "link_flit")},
       {"noc.va_ops", "count", ctr(n, "va_ops")},
       {"noc.sa_ops", "count", ctr(n, "sa_ops")},
       {"noc.buf_writes", "count", ctr(n, "buf_write")},
       {"noc.xbar_traversals", "count", ctr(n, "xbar")},
       {"noc.ni_inject_flits", "count", ctr(n, "ni_inject_flit")},
       {"noc.request_latency_cycles", "cycles", mean_of(n, "lat_net_req")},
       {"noc.request_queue_cycles", "cycles", mean_of(n, "q_lat_req")},
       {"noc.reply_queue_cycles", "cycles", mean_of(n, "q_lat_reply")},
       {"circuits.reservations", "count", res},
       {"circuits.forwards", "count", ctr(n, "circ_fwd")},
       {"circuits.fail_conflict", "count", ctr(n, "circ_fail_conflict")},
       {"circuits.build_aborted", "count", ctr(n, "circ_build_aborted")},
       {"circuits.entries_undone", "count", ctr(n, "circ_entries_undone")},
       {"circuits.reserve_entry1_frac", "frac",
        res > 0 ? ctr(n, "circ_reserve_1st") / res : 0},
       {"circuits.setup_latency_cycles", "cycles",
        mean_of(n, "lat_circuit_setup")},
       {"cpu.retired", "count", retired},
       {"cpu.mem_ops", "count", ctr(s, "core_mem_ops")},
       {"cpu.stall_frac", "frac",
        w.kind == Kind::Cmp ? ctr(s, "core_stall_cycles") / (cycles * w.nodes)
                            : 0},
       {"coherence.l1_accesses", "count", l1},
       {"coherence.l1_miss_frac", "frac",
        l1 > 0 ? (ctr(s, "l1_read_miss") + ctr(s, "l1_write_miss")) / l1 : 0},
       {"coherence.l2_hits", "count", ctr(s, "l2_hits")},
       {"coherence.l2_misses", "count", ctr(s, "l2_misses")},
       {"coherence.l2_req_blocked", "count", ctr(s, "l2_req_blocked")},
       {"coherence.invs_sent", "count", ctr(s, "l2_invs_sent")},
       {"memory.reads", "count", ctr(s, "mem_reads")},
       {"memory.writebacks", "count", ctr(s, "mem_writebacks")},
       {"power.energy_per_instr", "au/instr", t.energy_per_instr},
       {"bench.trace_overhead_frac", "frac",
        traced_s / median(plain_s) - 1.0}});
  return failed == 0 ? 0 : 1;
}

int curve(int side) {
  const std::vector<double> rates =
      side == 8 ? std::vector<double>{0.005, 0.01, 0.02, 0.03, 0.04, 0.045,
                                      0.05, 0.08}
                : std::vector<double>{0.005, 0.01, 0.015, 0.02, 0.022, 0.024,
                                      0.026, 0.03};
  const NocConfig cfg =
      make_system_config(side * side, kFabricPreset, "fft").noc;
  const Cycle warmup = 5'000, measure = 15'000;
  for (double rate : rates) {
    SyntheticTraffic st(cfg, rate, kServiceCycles, mix_seed(1), 1);
    const SyntheticResult r = st.run(warmup, measure);
    std::printf(
        "{\"mesh\": \"%dx%d\", \"rate\": %g, \"flits_per_100_cycles_node\": "
        "%g, \"reply_queue_cycles\": %.2f, \"reply_latency_cycles\": %.2f, "
        "\"circuit_use\": %.3f, \"delivered_replies_per_node_cycle\": %.5f, "
        "\"saturated\": %s}\n",
        side, side, rate, rate * (1 + kReplyFlits) * 100, r.reply_queueing,
        r.reply_latency, r.circuit_use,
        static_cast<double>(r.net.counter_value("msg_L2Reply")) /
            (static_cast<double>(measure) * side * side),
        r.reply_queueing > kSaturatedQueueCycles ? "true" : "false");
    std::fflush(stdout);
  }
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rcbench: %s\nusage: rcbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--quick] [--plant-mismatch]\n"
               "       rcbench --curve <8|16>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!*s || *s == '-' || *end || errno) usage(flag);
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads)
        if (name == w.name) o.w = &w;
      if (!o.w) usage(("unknown workload " + name).c_str());
    } else if (a == "--seed") {
      o.seed = parse_u64(value(), "bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(value(), "bad --seconds"));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--plant-mismatch") {
      o.plant_mismatch = true;
    } else if (a == "--curve") {
      o.curve_side = static_cast<int>(parse_u64(value(), "bad --curve"));
      if (o.curve_side != 8 && o.curve_side != 16) usage("--curve takes 8 or 16");
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!o.curve_side && !(o.w && have_seed && have_seconds && have_trace))
    usage("--workload, --seed, --seconds and --trace are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (o.curve_side) return curve(o.curve_side);
    Workload w = *o.w;
    if (o.quick) {
      w.warmup /= 10;
      w.measure /= 10;
    }
    return o.trace ? traced_run(o, w) : timed_run(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcbench: %s\n", e.what());
    return 1;
  }
}
