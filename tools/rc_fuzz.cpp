// rc-fuzz: seeded configuration fuzzer for the RC_CHECK invariant checker.
//
// Sweeps randomized-but-reproducible configurations (mesh size, VC counts,
// circuit variant, circuits per port, traffic mix, seeds) through short
// whole-system runs with the Validator attached, and reports the first
// violating configuration as a ready-to-paste rc-sim repro command.
//
//   rc-fuzz [--configs N] [--cycles N] [--seed N] [--warmup N] [--verbose]
//           [--spec-out FILE] [--snapshot-every N]
//
// --spec-out FILE writes the sampled configurations as an rc-dse sweep spec
// (explicit "points" entries) instead of running them in-process: the same
// seeded coverage, but each point in its own crash-isolated subprocess with
// a journal to resume from.
//
// --snapshot-every N is the snapshot torture mode: the run steps through
// System::run_to, the one run sequence (it resets the stats as the clock
// leaves the warm-up), and every N cycles of warm-up, then every N cycles
// of measurement, it is saved, reloaded into a fresh System, re-saved
// (save -> load -> save must reproduce the file byte-for-byte), and
// *continued from the reloaded System* — so the rest of the run, including
// the Validator's per-cycle scans, executes on restored state. Any
// serialization gap becomes a byte-diff, a load failure, or a downstream
// RC_CHECK violation with the usual repro command.
//
// Exit status: 0 when every configuration ran clean, 1 on the first
// violation (after printing the repro), 2 on bad flags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "cpu/apps.hpp"
#include "sim/point.hpp"
#include "sim/presets.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"
#include "sim/validator.hpp"

using namespace rc;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--configs N] [--cycles N] [--seed N] [--warmup N]"
               " [--verbose] [--spec-out FILE] [--snapshot-every N]\n",
               argv0);
  std::exit(2);
}

/// Draw one configuration. Every choice comes from `rng`, so (seed, index)
/// fully determines the case.
SweepPoint draw_point(Rng rng, Cycle warmup, Cycle cycles) {
  SweepPoint p;
  p.warmup = warmup;
  p.cycles = cycles;
  const auto& presets = preset_names();
  const auto& apps = app_names();
  p.preset = presets[rng.next_below(presets.size())];
  p.app = apps[rng.next_below(apps.size())];
  static const char* const kMesh[] = {"2x2", "4x2", "4x4", "8x4", "8x8"};
  p.mesh = kMesh[rng.next_below(5)];
  CircuitConfig cc = circuit_preset(p.preset);
  if (cc.uses_circuits() && rng.chance(0.5)) {
    static const int kCircs[] = {1, 2, 3, 5, 8};
    p.circuits = kCircs[rng.next_below(5)];
  }
  if (cc.slack_per_hop > 0 && rng.chance(0.5))
    p.slack = 1 + static_cast<int>(rng.next_below(4));
  // Minimum-depth buffers (1 or 2 flits) force the VC rings through their
  // wraparound/full/empty edges on every packet: a 5-flit data message
  // through a 1-flit buffer is a continuous stall-and-drain exercise. Keep
  // most cases at the default depth so the common configuration stays the
  // bulk of the coverage.
  if (rng.chance(0.25)) p.buf_depth = 1 + static_cast<int>(rng.next_below(2));
  p.vcs_req = 1 + static_cast<int>(rng.next_below(3));
  const int needed = cc.num_circuit_vcs() + 1;
  p.vcs_rep = needed + static_cast<int>(rng.next_below(3));
  // Sharded execution must be invariant-clean too (results are defined to
  // be bit-identical, so any divergence is a bug the checker should see).
  // Weighted toward serial, which keeps the checker's single-thread path
  // covered; clamped to num_nodes by System anyway.
  static const int kShards[] = {1, 1, 2, 4, 8};
  p.shards = kShards[rng.next_below(5)];
  // Topology x MC-placement axis. Weighted toward the paper's mesh; every
  // kMesh size above is even and at least 2x2, so all four kinds accept it.
  static const char* const kTopo[] = {"mesh",  "mesh", "mesh",
                                      "torus", "ring", "cmesh"};
  p.topology = kTopo[rng.next_below(6)];
  static const char* const kMc[] = {"edge-middle", "corner", "diagonal"};
  p.mc_placement = kMc[rng.next_below(3)];
  // Coherence-protocol axis: half the sweep runs the sparse-directory MSI
  // variant, with deliberately scarce directories (few sets/ways, 1-8
  // pointers) so entry evictions and pointer-overflow recalls actually
  // fire, and half of those swapped onto the structured sharing-stress
  // generators where those storms are densest.
  if (rng.chance(0.5)) {
    p.protocol = "sparse-msi";
    static const int kPtrs[] = {1, 2, 4, 8};
    p.dir_pointers = kPtrs[rng.next_below(4)];
    static const int kDirSets[] = {16, 64, 256};
    p.dir_sets = kDirSets[rng.next_below(3)];
    static const int kDirWays[] = {2, 4, 8};
    p.dir_ways = kDirWays[rng.next_below(3)];
    if (rng.chance(0.5))
      p.app = rng.chance(0.5) ? "producer_consumer" : "sharing_heavy";
  }
  p.seed = 1 + rng.next_below(1u << 20);
  return p;
}

/// Snapshot torture drive: System::run's sequence stepped through run_to,
/// with a checkpoint every `every` cycles of warm-up and then every `every`
/// cycles of measurement. Each checkpoint saves the state, reloads it into
/// a fresh System, re-saves and byte-compares (save -> load -> save is a
/// fixed point), and the run continues from the *reloaded* System. Throws
/// FatalError on any snapshot-layer failure so the caller's violation
/// reporting (with the repro command) kicks in.
void torture_run(const SystemConfig& cfg, Cycle every) {
  auto sys = std::make_unique<System>(cfg);
  const std::string snap = "rcfuzz_torture.state";
  const std::string resaved = "rcfuzz_torture2.state";
  const Cycle w = cfg.warmup_cycles;
  const Cycle end = w + cfg.measure_cycles;
  for (Cycle t = 0; t < end;) {
    t = std::min(t + every, t < w ? w : end);
    sys->run_to(t);
    std::string serr;
    if (!save_snapshot(*sys, snap, &serr))
      throw FatalError("snapshot save failed: " + serr);
    auto fresh = std::make_unique<System>(cfg);
    if (load_snapshot(fresh.get(), snap, &serr) != SnapshotStatus::Ok)
      throw FatalError("snapshot load failed: " + serr);
    if (!save_snapshot(*fresh, resaved, &serr))
      throw FatalError("snapshot re-save failed: " + serr);
    std::string a, b;
    if (!read_file(snap, &a) || !read_file(resaved, &b) || a != b)
      throw FatalError("snapshot round-trip diverged at cycle " +
                       std::to_string(t) +
                       " (save -> load -> save is not a fixed point)");
    sys = std::move(fresh);
  }
  std::remove(snap.c_str());
  std::remove(resaved.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  long long configs = 25;
  long long cycles = 2'000;
  long long warmup = 500;
  std::uint64_t seed = 1;
  bool verbose = false;
  std::string spec_out;
  long long snapshot_every = 0;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    auto need_int = [&](const char* flag, long long min_v) {
      return flag_ll(flag, need(flag), min_v);
    };
    if (!std::strcmp(argv[i], "--configs")) configs = need_int("--configs", 1);
    else if (!std::strcmp(argv[i], "--cycles")) cycles = need_int("--cycles", 1);
    else if (!std::strcmp(argv[i], "--warmup")) warmup = need_int("--warmup", 0);
    else if (!std::strcmp(argv[i], "--seed"))
      seed = static_cast<std::uint64_t>(need_int("--seed", 0));
    else if (!std::strcmp(argv[i], "--snapshot-every"))
      snapshot_every = need_int("--snapshot-every", 1);
    else if (!std::strcmp(argv[i], "--verbose")) verbose = true;
    else if (!std::strcmp(argv[i], "--spec-out")) spec_out = need("--spec-out");
    else if (!std::strcmp(argv[i], "--help")) usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      usage(argv[0]);
    }
  }

  // Enable the checker for every System built below. The watchdog window
  // covers the whole run: a message that outlives warm-up + measurement is
  // certainly stuck in a run this short.
  const std::string hang = std::to_string(warmup + cycles);
  setenv("RC_CHECK", "1", 1);
  setenv("RC_HANG_CYCLES", hang.c_str(), 1);

  Rng root(seed ? seed : 1);

  // --spec-out: same seeded draw as the run path below (identical coverage
  // for a given --seed), but emitted as an rc-dse spec instead of executed.
  if (!spec_out.empty()) {
    std::string spec = "{\n  \"points\": [\n";
    int emitted = 0;
    for (long long i = 0; i < configs; ++i) {
      const SweepPoint p = draw_point(root.fork(i + 1), warmup, cycles);
      if (!point_config(p).validate().empty()) continue;
      if (emitted++ > 0) spec += ",\n";
      spec += "    " + point_json(p);
    }
    spec += "\n  ]\n}\n";
    std::string werr;
    if (!write_file_atomic(spec_out, spec, &werr)) {
      std::fprintf(stderr, "rc-fuzz: cannot write %s: %s\n", spec_out.c_str(),
                   werr.c_str());
      return 2;
    }
    std::printf("[rc-fuzz] wrote %d point(s) to %s\n", emitted,
                spec_out.c_str());
    return 0;
  }

  int ran = 0, skipped = 0;
  for (long long i = 0; i < configs; ++i) {
    const SweepPoint p = draw_point(root.fork(i + 1), warmup, cycles);
    const SystemConfig cfg = point_config(p);
    std::string err = cfg.validate();
    if (!err.empty()) {
      // Shouldn't happen (draw_point respects the config rules); count it so
      // a drifting generator can't silently shrink coverage.
      ++skipped;
      if (verbose)
        std::fprintf(stderr, "[rc-fuzz] %lld: SKIP (%s)\n", i, err.c_str());
      continue;
    }
    if (verbose)
      std::fprintf(stderr, "[rc-fuzz] %lld: %s\n", i, point_key(p).c_str());
    try {
      if (snapshot_every > 0) {
        torture_run(cfg, static_cast<Cycle>(snapshot_every));
      } else {
        System sys(cfg);
        sys.run();
      }
      ++ran;
    } catch (const FatalError& e) {
      // rc-sim has no shards flag; RC_SHARDS drives the engine the same way
      // (SystemConfig::shards == 0 defers to the environment).
      std::string repro = "RC_CHECK=1 RC_SHARDS=" + std::to_string(p.shards) +
                          " RC_HANG_CYCLES=" + hang + " build/tools/rc-sim";
      for (const std::string& a : point_args(p)) repro += " " + a;
      std::fprintf(stderr,
                   "\n[rc-fuzz] VIOLATION at config %lld (sweep seed %llu):\n"
                   "  %s\n\nrepro:\n  %s\n",
                   i, static_cast<unsigned long long>(seed), e.what(),
                   repro.c_str());
      return 1;
    }
  }
  std::printf("[rc-fuzz] %d config(s) x %lld cycles clean, %d skipped, "
              "0 violations\n",
              ran, cycles, skipped);
  return 0;
}
