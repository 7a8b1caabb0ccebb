// Allocation-free datapath gate. A counting global operator new backs two
// steady-state checks on a loaded 8x8 mesh:
//
//  1. Network::tick. After a warm-up long enough for every ring, pipe and
//     pool freelist to reach its high-water mark, a further window of the
//     same traffic performs zero heap allocations: the per-flit hot path is
//     flat arrays end to end.
//  2. Engine::run, the cycle loop every host (System, SyntheticTraffic)
//     runs, at 1 and 4 shards, with the injectors registered as Tickers.
//     A call allocates a fixed amount (the loop's std::function wrappers
//     and the shard workers), never per cycle: a 10k-cycle run must
//     allocate exactly as much as a 10-cycle run.
//
// Plain main(): exit 0 when every check passes, 1 otherwise.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "noc/message.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"

// ---- global allocation counter ------------------------------------------
// Replaces the global allocation functions for this binary only. Shard
// workers allocate too, so the counter is atomic.

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

std::uint64_t allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

struct Send {
  Cycle at;
  MsgPtr msg;
};

/// Moderate random traffic: one 1-flit GetS every 4th cycle between two
/// distinct random nodes. Generated up front, so message construction stays
/// outside the measured windows.
std::vector<Send> traffic_plan(int nodes, Cycle cycles) {
  std::vector<Send> plan;
  Rng rng(7);
  std::uint64_t id = 0;
  for (Cycle c = 0; c < cycles; c += 4) {
    auto m = std::make_shared<Message>();
    m->id = ++id;
    m->type = MsgType::GetS;
    m->src = static_cast<NodeId>(rng.next_below(nodes));
    m->dest = static_cast<NodeId>(rng.next_below(nodes));
    m->addr = 64 * id;
    m->size_flits = flits_of(m->type);
    if (m->src != m->dest) plan.push_back(Send{c, std::move(m)});
  }
  return plan;
}

NocConfig mesh8() {
  NocConfig cfg;
  cfg.mesh_w = cfg.mesh_h = 8;
  return cfg;
}

int check_network_tick() {
  const Cycle warmup = 10'000;
  const Cycle measure = 10'000;
  const NocConfig cfg = mesh8();
  Network net(cfg);
  net.set_deliver([](NodeId, const MsgPtr&) {});
  const std::vector<Send> plan =
      traffic_plan(cfg.num_nodes(), warmup + measure);

  std::size_t next = 0;
  std::uint64_t before = 0;
  for (Cycle c = 0; c < warmup + measure; ++c) {
    if (c == warmup) before = allocs();
    while (next < plan.size() && plan[next].at == c)
      net.send(plan[next++].msg, c);
    net.tick(c);
  }
  const std::uint64_t n = allocs() - before;
  if (n != 0) {
    std::fprintf(stderr,
                 "FAIL: Network::tick: %llu heap allocations over %llu loaded "
                 "cycles after warm-up (want 0)\n",
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(measure));
    return 1;
  }
  std::printf("Network::tick: 0 heap allocations over %llu loaded cycles "
              "after warm-up\n",
              static_cast<unsigned long long>(measure));
  return 0;
}

/// Sends its node's share of a traffic plan, as a schedule component.
struct Injector : Ticker {
  Network* net = nullptr;
  std::vector<Send> plan;  ///< this node's sends, in cycle order
  std::size_t next = 0;
  void tick(Cycle now) {
    while (next < plan.size() && plan[next].at == now)
      net->send(plan[next++].msg, now);
  }
  Cycle next_work(Cycle) const {
    return next < plan.size() ? plan[next].at : kNeverCycle;
  }
};

int check_engine_run(int shards) {
  const Cycle warmup = 10'000;
  const Cycle short_run = 10;
  const Cycle long_run = 10'000;
  const NocConfig cfg = mesh8();
  Network net(cfg);
  net.set_deliver([](NodeId, const MsgPtr&) {});
  std::vector<Injector> inj(static_cast<std::size_t>(cfg.num_nodes()));
  for (Injector& i : inj) i.net = &net;
  for (Send& s : traffic_plan(cfg.num_nodes(), warmup + short_run + long_run))
    inj[s.msg->src].plan.push_back(std::move(s));

  Engine engine;
  engine.build(net, shards, [&inj](ShardSchedule& s, const ShardRange& r) {
    for (NodeId i = r.begin; i < r.end; ++i) s.add(&inj[i], "injector");
  });
  engine.run(warmup);
  std::uint64_t before = allocs();
  engine.run(short_run);
  const std::uint64_t per_short = allocs() - before;
  before = allocs();
  engine.run(long_run);
  const std::uint64_t per_long = allocs() - before;
  if (per_long != per_short) {
    std::fprintf(stderr,
                 "FAIL: Engine::run at %d shard(s): a %llu-cycle run made %llu "
                 "heap allocations, a %llu-cycle run %llu (want equal)\n",
                 shards, static_cast<unsigned long long>(long_run),
                 static_cast<unsigned long long>(per_long),
                 static_cast<unsigned long long>(short_run),
                 static_cast<unsigned long long>(per_short));
    return 1;
  }
  std::printf("Engine::run at %d shard(s): %llu heap allocations per call, "
              "for %llu and for %llu loaded cycles\n",
              shards, static_cast<unsigned long long>(per_long),
              static_cast<unsigned long long>(short_run),
              static_cast<unsigned long long>(long_run));
  return 0;
}

}  // namespace
}  // namespace rc

int main() {
  int failed = rc::check_network_tick();
  for (int shards : {1, 4}) failed |= rc::check_engine_run(shards);
  return failed;
}
