#include "common/shard.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "common/parse.hpp"

namespace rc {

std::vector<ShardRange> shard_ranges(int num_nodes, int shards) {
  RC_ASSERT(num_nodes > 0, "cannot shard an empty mesh");
  if (shards < 1) shards = 1;
  if (shards > num_nodes) shards = num_nodes;
  std::vector<ShardRange> out(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    // Even split: shard k owns [k*n/s, (k+1)*n/s), so sizes differ by <= 1
    // and the union covers [0, n) with no gaps or overlaps.
    out[k].begin = static_cast<NodeId>(
        (static_cast<long long>(k) * num_nodes) / shards);
    out[k].end = static_cast<NodeId>(
        (static_cast<long long>(k + 1) * num_nodes) / shards);
  }
  return out;
}

int allowed_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return CPU_COUNT(&set);
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int effective_shards(int configured, int num_nodes) {
  int n = configured;
  if (n <= 0) {
    const char* v = std::getenv("RC_SHARDS");
    if (v == nullptr || v[0] == '\0') {
      n = 1;
    } else if (std::strcmp(v, "auto") == 0) {
      // One allowed CPU (taskset, a restrictive cpuset) resolves to one
      // shard — a multi-shard engine on one CPU only adds barrier overhead.
      // More workers than nodes is equally pointless, so clamp *before*
      // logging and report the value the run actually uses.
      const int cpus = allowed_cpus();
      n = cpus > num_nodes ? num_nodes : cpus;
      // One-time log of the resolution so runs are reproducible from their
      // logs. A caller may construct Systems on several threads at once,
      // hence the atomic latch.
      static std::atomic<bool> logged{false};
      if (!logged.exchange(true, std::memory_order_relaxed))
        std::fprintf(stderr,
                     "rc: RC_SHARDS=auto -> %d shard%s "
                     "(%d allowed CPU%s, %d nodes)\n",
                     n, n == 1 ? "" : "s", cpus, cpus == 1 ? "" : "s",
                     num_nodes);
    } else {
      n = static_cast<int>(env_positive_ll("RC_SHARDS", 1));
    }
  }
  if (n < 1) n = 1;
  if (n > num_nodes) n = num_nodes;
  return n;
}

namespace {

/// Sense-reversing barrier. Arrivals decrement `remaining`; the last one
/// runs the completion single-threaded (everyone else is parked), resets
/// the count and flips `sense`, releasing the waiters. Waiters spin on the
/// sense word — a shared read that stays cache-resident until the flip —
/// and fall back to yield after a bounded spin so a host with fewer CPUs
/// than shards (or a fast-forwarding engine with nothing to do) does not
/// burn a core per idle shard.
class SenseBarrier {
 public:
  explicit SenseBarrier(int parties)
      : parties_(parties), remaining_(parties) {}

  template <typename Completion>
  void arrive_and_wait(Completion&& complete) {
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      complete();
      remaining_.store(parties_, std::memory_order_relaxed);
      // The release store publishes both the completion's writes and the
      // reset count to every spinning waiter.
      sense_.store(my_sense, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != my_sense) {
      if (++spins >= kSpinLimit) std::this_thread::yield();
    }
  }

 private:
  static constexpr int kSpinLimit = 4096;
  const int parties_;
  std::atomic<int> remaining_;
  std::atomic<bool> sense_{false};
};

/// Shared state of one run_sharded invocation.
struct ShardRun {
  Cycle cur = 0;
  Cycle end = 0;
  const std::function<void(int, Cycle)>* body = nullptr;
  const std::function<Cycle(Cycle)>* finish = nullptr;
  std::atomic<bool> err{false};
  bool stop = false;  ///< written only by the barrier completion
  std::vector<std::exception_ptr> errors;  ///< per shard, + 1 slot for finish

  /// Barrier completion: runs on the last arriver while everyone else is
  /// parked, so it may touch shared state freely. Publishes one stop
  /// decision per cycle — workers all break at the same generation, which
  /// is what keeps a throwing worker from deadlocking the barrier.
  void complete() noexcept {
    Cycle next = cur + 1;
    if (!err.load(std::memory_order_relaxed)) {
      try {
        next = (*finish)(cur);
        RC_ASSERT(next > cur, "run_sharded finish must advance the clock");
      } catch (...) {
        errors.back() = std::current_exception();
        err.store(true, std::memory_order_relaxed);
      }
    }
    cur = next;
    stop = err.load(std::memory_order_relaxed) || cur >= end;
  }
};

}  // namespace

void run_sharded(int nshards, Cycle start, Cycle end,
                 const std::function<void(int, Cycle)>& body,
                 const std::function<Cycle(Cycle)>& finish) {
  RC_ASSERT(nshards >= 1, "run_sharded needs at least one shard");
  if (start >= end) return;

  ShardRun run;
  run.cur = start;
  run.end = end;
  run.body = &body;
  run.finish = &finish;
  run.errors.assign(static_cast<std::size_t>(nshards) + 1, nullptr);

  SenseBarrier bar(nshards);
  auto worker = [&](int k) {
    for (;;) {
      // run.cur / run.stop are only written by the barrier completion while
      // every worker is parked; the barrier's release sequence publishes
      // them, so plain reads here are race-free.
      const Cycle now = run.cur;
      if (!run.err.load(std::memory_order_relaxed)) {
        try {
          body(k, now);
        } catch (...) {
          run.errors[static_cast<std::size_t>(k)] = std::current_exception();
          run.err.store(true, std::memory_order_relaxed);
        }
      }
      bar.arrive_and_wait([&run] { run.complete(); });
      if (run.stop) return;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nshards) - 1);
  for (int k = 1; k < nshards; ++k) pool.emplace_back(worker, k);
  worker(0);
  for (auto& t : pool) t.join();

  for (auto& e : run.errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace rc
