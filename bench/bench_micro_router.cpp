// Microbenchmarks (google-benchmark): raw simulation-kernel throughput of
// the main building blocks — router ticks under load, circuit-table
// operations, reservation policy checks, and whole-system cycles/second.
//
// This binary also enforces the allocation-free datapath invariant: a
// counting operator-new hook plus a steady-state check (run before the timed
// benchmarks) that drives a loaded 8x8 mesh past warm-up and asserts the
// per-flit hot path performs ZERO heap allocations per cycle thereafter.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "circuits/circuit_manager.hpp"
#include "noc/network.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

// ---- global allocation counter ------------------------------------------
// Replaces the global allocation functions for this binary only. Counting is
// a single relaxed atomic increment, cheap enough to leave on for the timed
// benchmarks too (it perturbs every candidate build equally).

static std::atomic<std::uint64_t> g_alloc_count{0};

static void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

static void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (n == 0) n = 1;
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rc {
namespace {

void BM_IdleNetworkTick(benchmark::State& state) {
  NocConfig cfg;
  cfg.mesh_w = cfg.mesh_h = static_cast<int>(state.range(0));
  Network net(cfg);
  Cycle now = 0;
  for (auto _ : state) net.tick(now++);
  state.SetItemsProcessed(state.iterations() * cfg.num_nodes());
}
BENCHMARK(BM_IdleNetworkTick)->Arg(4)->Arg(8);

void BM_LoadedNetworkTick(benchmark::State& state) {
  NocConfig cfg;
  cfg.mesh_w = cfg.mesh_h = static_cast<int>(state.range(0));
  Network net(cfg);
  net.set_deliver([](NodeId, const MsgPtr&) {});
  Cycle now = 0;
  std::uint64_t id = 0;
  Rng rng(7);
  for (auto _ : state) {
    if (now % 4 == 0) {  // sustain moderate random traffic
      auto m = std::make_shared<Message>();
      m->id = ++id;
      m->type = MsgType::GetS;
      m->src = static_cast<NodeId>(rng.next_below(cfg.num_nodes()));
      m->dest = static_cast<NodeId>(rng.next_below(cfg.num_nodes()));
      m->addr = 64 * id;
      m->size_flits = 1;
      if (m->src != m->dest) net.send(m, now);
    }
    net.tick(now++);
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_nodes());
}
BENCHMARK(BM_LoadedNetworkTick)->Arg(4)->Arg(8);

void BM_CircuitReserveRelease(benchmark::State& state) {
  CircuitConfig cc;
  cc.mode = CircuitMode::Complete;
  cc.circuits_per_input = 5;
  StatSet stats;
  CircuitManager m(cc, &stats);
  Cycle now = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    ReserveRequest r;
    r.src = 3;
    r.dest = 7;
    r.addr = 64 * (i % 5);
    r.in_port = 1;
    r.out_port = 2;
    r.owner_req = ++i;
    auto res = m.try_reserve(now, r, false);
    benchmark::DoNotOptimize(res);
    if (res.ok) {
      m.match(1, 7, r.addr, i, true, now);
      m.release(1, 7, r.addr, i, now);
    }
    ++now;
  }
}
BENCHMARK(BM_CircuitReserveRelease);

void BM_TimedConflictCheck(benchmark::State& state) {
  CircuitConfig cc;
  cc.mode = CircuitMode::Complete;
  cc.circuits_per_input = 5;
  cc.timed = TimedMode::SlackDelay;
  cc.slack_per_hop = 2;
  StatSet stats;
  CircuitManager m(cc, &stats);
  // Pre-populate slots so every check scans realistic occupancy.
  for (int k = 0; k < 4; ++k) {
    ReserveRequest r;
    r.src = 3;
    r.dest = 7;
    r.addr = 64 * k;
    r.in_port = 1;
    r.out_port = 2;
    r.owner_req = 100 + k;
    r.slot_start = 1000 + 40 * k;
    r.slot_end = 1020 + 40 * k;
    m.try_reserve(0, r, true);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    ReserveRequest r;
    r.src = 5;
    r.dest = 9;
    r.addr = 0x9000;
    r.in_port = 0;
    r.out_port = 2;
    r.owner_req = ++i;
    r.slot_start = 1000 + (i % 200);
    r.slot_end = r.slot_start + 30;
    r.max_extra_delay = 6;
    auto res = m.try_reserve(0, r, true);
    benchmark::DoNotOptimize(res);
    if (res.ok) m.undo(0, UndoRecord{9, 0x9000, i}, 0);
  }
}
BENCHMARK(BM_TimedConflictCheck);

void BM_FullSystemCycle(benchmark::State& state) {
  SystemConfig cfg = make_system_config(static_cast<int>(state.range(0)),
                                        "SlackDelay1_NoAck", "fft");
  System sys(cfg);
  sys.prewarm();
  sys.run_cycles(2'000);  // settle
  for (auto _ : state) sys.run_cycles(1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullSystemCycle)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

// Steady-state allocation check: the loaded-mesh scenario of
// BM_LoadedNetworkTick with the injection plan pre-generated (so message
// construction is excluded from the measured window). After a warm-up long
// enough for every ring, pipe, stat key and pool freelist to reach its
// high-water mark, a further measured window of the same traffic must
// perform zero heap allocations — the datapath is flat arrays end to end.
int run_steady_state_alloc_check() {
  NocConfig cfg;
  cfg.mesh_w = cfg.mesh_h = 8;
  Network net(cfg);
  net.set_deliver([](NodeId, const MsgPtr&) {});

  struct Inj {
    Cycle at;
    MsgPtr msg;
  };
  const Cycle warmup = 10'000;
  const Cycle measure = 10'000;
  std::vector<Inj> plan;
  Rng rng(7);
  std::uint64_t id = 0;
  for (Cycle c = 0; c < warmup + measure; c += 4) {
    auto m = std::make_shared<Message>();
    m->id = ++id;
    m->type = MsgType::GetS;
    m->src = static_cast<NodeId>(rng.next_below(cfg.num_nodes()));
    m->dest = static_cast<NodeId>(rng.next_below(cfg.num_nodes()));
    m->addr = 64 * id;
    m->size_flits = 1;
    if (m->src != m->dest) plan.push_back(Inj{c, std::move(m)});
  }

  std::size_t next = 0;
  Cycle c = 0;
  for (; c < warmup; ++c) {
    while (next < plan.size() && plan[next].at == c)
      net.send(plan[next++].msg, c);
    net.tick(c);
  }
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (; c < warmup + measure; ++c) {
    while (next < plan.size() && plan[next].at == c)
      net.send(plan[next++].msg, c);
    net.tick(c);
  }
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state alloc check: %llu heap allocations over "
                 "%llu loaded cycles after warm-up (want 0)\n",
                 static_cast<unsigned long long>(allocs),
                 static_cast<unsigned long long>(measure));
    return 1;
  }
  std::printf(
      "steady-state alloc check: 0 heap allocations over %llu loaded "
      "cycles after warm-up\n",
      static_cast<unsigned long long>(measure));
  return 0;
}

}  // namespace
}  // namespace rc

int main(int argc, char** argv) {
  // The invariant check runs before (and regardless of) any benchmark
  // filter, so `bench_micro_router --benchmark_filter=NONE` is a fast
  // allocation-regression gate for CI.
  if (const int rc = rc::run_steady_state_alloc_check(); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
