// Sharded parallel tick engine: mesh partitioning and the per-cycle barrier
// loop. The Engine (sim/engine.hpp) is its one user: every host — System,
// SyntheticTraffic, the allocation test's bare mesh — runs its cycles
// through it, at every shard count including 1.
//
// The mesh is split into contiguous tile shards (each tile = core + L1 + L2
// bank + optional MC + router + NI); one worker thread owns each shard and
// the workers meet at a barrier every cycle. This is conservative spatial
// parallelism in the Graphite tradition, and it is safe by construction
// here: components only exchange data through latency Pipes (latency >= 1),
// so an item pushed in cycle t is never consumable before t+1 and the order
// in which shards progress *within* a cycle is unobservable. Cross-shard
// pushes are deferred into per-pipe mailboxes and flushed at the barrier
// (see Pipe::set_deferred / Network::finish_cycle), which also gives the
// Validator a consistent post-barrier global view.
//
// Stats stay bit-identical across shard counts because every component
// writes only its own node's StatSet and the merge runs in fixed node order
// (see Network::merged_stats / System::sys_stats).
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"

namespace rc {

/// Half-open range of node ids [begin, end) owned by one shard.
struct ShardRange {
  NodeId begin = 0;
  NodeId end = 0;

  int size() const { return end - begin; }
  bool contains(NodeId n) const { return n >= begin && n < end; }
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// Partition `num_nodes` row-major tiles into `shards` contiguous ranges.
/// Shard counts are clamped to [1, num_nodes]; sizes differ by at most one
/// node, every node is covered exactly once, and the ranges are returned in
/// ascending node order (so degenerate meshes like 1xN just get contiguous
/// strip slices).
std::vector<ShardRange> shard_ranges(int num_nodes, int shards);

/// CPUs this process may run on (its sched_getaffinity mask, so taskset and
/// cpuset limits count), falling back to hardware_concurrency() when the
/// mask cannot be read. Never less than 1.
int allowed_cpus();

/// Resolve the shard count for a run. `configured > 0` is an explicit
/// request (tests pin 1/2/4 this way) and wins; `configured == 0` defers to
/// the RC_SHARDS environment variable ("auto" = allowed_cpus() clamped
/// to the node count, a positive integer otherwise, unset = 1 = one
/// shard on the calling thread). The result is clamped to [1, num_nodes].
int effective_shards(int configured, int num_nodes);

/// Run cycles over `nshards` workers with a per-cycle barrier, starting at
/// `start` and stopping once the clock reaches `end`.
///
/// Each cycle, every worker k runs `body(k, now)`; when all have arrived at
/// the barrier, the last one runs `finish(now)` (cross-shard mailbox flush,
/// observer scans, clock bump) while the others are parked, then all release
/// into the next cycle. `finish` returns the next cycle to simulate — `now
/// + 1` to step normally, or a later cycle to fast-forward an engine whose
/// activity frontiers prove nothing can happen in between (it must advance
/// the clock by at least one). The calling thread acts as shard 0; with one
/// shard no thread is started and the barrier is a single atomic countdown.
///
/// The barrier is sense-reversing: the last arriver runs the completion and
/// flips the shared sense word; the others spin briefly on it and then park
/// via yield, so an idle shard costs a cache-line read per cycle rather
/// than a futex round-trip, while oversubscribed hosts still make progress.
///
/// Exceptions (including rc::fatal) thrown by `body` or `finish` stop every
/// worker at the same cycle boundary — no barrier deadlock — and the first
/// one (by shard index, `finish` last) is rethrown on the calling thread
/// after all workers have joined.
void run_sharded(int nshards, Cycle start, Cycle end,
                 const std::function<void(int, Cycle)>& body,
                 const std::function<Cycle(Cycle)>& finish);

}  // namespace rc
