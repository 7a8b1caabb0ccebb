// Snapshot round-trip property suite (sim/snapshot.hpp, DESIGN.md §16).
//
// The contract under test: save at any cycle boundary, load into a fresh
// System, continue — and the resumed run is indistinguishable from the
// uninterrupted one. "Indistinguishable" is checked at the strongest level
// available: re-serializing both Systems at the end must produce
// byte-identical snapshot files (which covers every serialized field of
// every component, not just the stats), plus bit-exact stat sets.
//
// Plus the rejection paths: truncation anywhere in the file, a bumped
// format version, and a config digest mismatch must all fail loudly.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/state.hpp"
#include "common/stats.hpp"
#include "gtest/gtest.h"
#include "noc/message.hpp"
#include "noc/message_pool.hpp"
#include "sim/presets.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"

namespace rc {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_stats_equal(const StatSet& a, const StatSet& b,
                        const std::string& what) {
  for (const auto& [k, v] : a.counters())
    EXPECT_EQ(v, b.counter_value(k)) << what << " counter " << k;
  for (const auto& [k, v] : b.counters())
    EXPECT_EQ(v, a.counter_value(k)) << what << " counter " << k;
}

SystemConfig combo_config(TopologyKind topo, Protocol proto,
                          std::uint64_t seed) {
  SystemConfig cfg = make_system_config(16, "SlackDelay1_NoAck", "fft", seed);
  cfg.noc.topology = topo;
  cfg.protocol = proto;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 800;
  return cfg;
}

// One round-trip property case: run uninterrupted; run again, saving at a
// (seeded-random) mid-run cycle, reload into a fresh System, continue to
// the same end. Both final states must serialize to identical bytes.
void roundtrip_case(TopologyKind topo, Protocol proto, std::uint64_t seed,
                    const std::string& tag) {
  SCOPED_TRACE(tag);
  const SystemConfig cfg = combo_config(topo, proto, seed);
  const Cycle total = cfg.warmup_cycles + cfg.measure_cycles;
  std::mt19937_64 rng(seed * 1000003u + static_cast<int>(topo) * 31u +
                      static_cast<int>(proto));
  const Cycle save_at = 1 + rng() % (total - 1);

  const std::string mid = "snap_" + tag + "_mid.state";
  const std::string end_a = "snap_" + tag + "_a.state";
  const std::string end_b = "snap_" + tag + "_b.state";
  std::string err;

  // Uninterrupted reference run (manual drive: prewarm + straight cycles —
  // both sides skip reset_stats so the comparison covers warm-up activity
  // too).
  System full(cfg);
  full.prewarm();
  full.run_cycles(total);
  ASSERT_TRUE(save_snapshot(full, end_a, &err)) << err;

  // Interrupted run: save at the random cycle...
  System first(cfg);
  first.prewarm();
  first.run_cycles(save_at);
  ASSERT_TRUE(save_snapshot(first, mid, &err)) << err;

  // ...resume in a fresh System and continue to the same end.
  System resumed(cfg);
  ASSERT_EQ(load_snapshot(&resumed, mid, &err), SnapshotStatus::Ok) << err;
  EXPECT_EQ(resumed.now(), save_at);
  resumed.run_cycles(total - save_at);
  ASSERT_TRUE(save_snapshot(resumed, end_b, &err)) << err;

  EXPECT_EQ(read_file(end_a), read_file(end_b))
      << "resumed state diverged from the uninterrupted run (saved at cycle "
      << save_at << " of " << total << ")";
  EXPECT_EQ(full.total_retired(), resumed.total_retired());
  expect_stats_equal(full.network().merged_stats(),
                     resumed.network().merged_stats(), "net");
  expect_stats_equal(full.merged_sys_stats(), resumed.merged_sys_stats(),
                     "sys");

  std::remove(mid.c_str());
  std::remove(end_a.c_str());
  std::remove(end_b.c_str());
}

TEST(SnapshotRoundtrip, RandomMidRunSaveAcrossTopologiesAndProtocols) {
  const std::vector<std::pair<TopologyKind, const char*>> topos = {
      {TopologyKind::Mesh, "mesh"},
      {TopologyKind::Torus, "torus"},
      {TopologyKind::Ring, "ring"},
      {TopologyKind::CMesh, "cmesh"},
  };
  const std::vector<std::pair<Protocol, const char*>> protos = {
      {Protocol::FullMapMESI, "mesi"},
      {Protocol::SparseMSI, "msi"},
  };
  for (const auto& [topo, tname] : topos)
    for (const auto& [proto, pname] : protos)
      roundtrip_case(topo, proto, /*seed=*/7,
                     std::string(tname) + "_" + pname);
}

// The warm-up boundary rule, in-process: run_to resets the stats as the
// clock leaves warmup_cycles, so a save at any split, including exactly at
// the boundary and at cycle 0, resumes to the uninterrupted run().
TEST(SnapshotRoundtrip, RunToSplitsResumeToTheUninterruptedRun) {
  const SystemConfig cfg = combo_config(TopologyKind::Mesh,
                                        Protocol::FullMapMESI, /*seed=*/3);
  const Cycle w = cfg.warmup_cycles;
  const Cycle end = w + cfg.measure_cycles;
  std::string err;
  System full(cfg);
  full.run();
  ASSERT_TRUE(save_snapshot(full, "snap_split_a.state", &err)) << err;
  const std::string want = read_file("snap_split_a.state");

  for (Cycle split : {Cycle{0}, w - 1, w, w + 1, end}) {
    SCOPED_TRACE("split at cycle " + std::to_string(split));
    System first(cfg);
    first.run_to(split);
    ASSERT_EQ(first.now(), split);
    if (split <= w) {  // not yet reset: the boundary holds warm-up stats
      System raw(cfg);
      raw.prewarm();
      raw.run_cycles(split);
      EXPECT_TRUE(first.network().merged_stats() ==
                  raw.network().merged_stats());
      EXPECT_TRUE(first.merged_sys_stats() == raw.merged_sys_stats());
    }
    ASSERT_TRUE(save_snapshot(first, "snap_split_mid.state", &err)) << err;
    System resumed(cfg);
    ASSERT_EQ(load_snapshot(&resumed, "snap_split_mid.state", &err),
              SnapshotStatus::Ok)
        << err;
    resumed.run_to(end);
    ASSERT_TRUE(save_snapshot(resumed, "snap_split_b.state", &err)) << err;
    EXPECT_EQ(read_file("snap_split_b.state"), want);
    EXPECT_TRUE(resumed.network().merged_stats() ==
                full.network().merged_stats());
    EXPECT_TRUE(resumed.merged_sys_stats() == full.merged_sys_stats());
    EXPECT_EQ(resumed.total_retired(), full.total_retired());
  }
  for (const char* f :
       {"snap_split_a.state", "snap_split_mid.state", "snap_split_b.state"})
    std::remove(f);
}

TEST(SnapshotRejection, TruncationAnywhereFailsTheChecksum) {
  const SystemConfig cfg = combo_config(TopologyKind::Mesh,
                                        Protocol::FullMapMESI, /*seed=*/5);
  System sys(cfg);
  sys.prewarm();
  sys.run_cycles(200);
  const std::string path = "snap_trunc.state";
  std::string err;
  ASSERT_TRUE(save_snapshot(sys, path, &err)) << err;
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 64u);

  // Cuts at the front, inside the body, and one byte short of complete.
  for (std::size_t cut : {std::size_t{4}, std::size_t{20}, bytes.size() / 2,
                          bytes.size() - 1}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    write_file("snap_cut.state", bytes.substr(0, cut));
    System fresh(cfg);
    err.clear();
    EXPECT_EQ(load_snapshot(&fresh, "snap_cut.state", &err),
              SnapshotStatus::Error);
    EXPECT_FALSE(err.empty());
  }
  // A flipped byte in the middle must fail too (checksum, not just length).
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  write_file("snap_cut.state", corrupt);
  System fresh(cfg);
  err.clear();
  EXPECT_EQ(load_snapshot(&fresh, "snap_cut.state", &err),
            SnapshotStatus::Error);
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
  std::remove(path.c_str());
  std::remove("snap_cut.state");
}

/// Save a snapshot, rewrite its format version to `version` (re-sealing
/// the checksum so the rejection is about the version, not corruption) and
/// check that loading refuses it.
void expect_version_refused(std::uint32_t version) {
  const SystemConfig cfg = combo_config(TopologyKind::Mesh,
                                        Protocol::FullMapMESI, /*seed=*/5);
  System sys(cfg);
  sys.prewarm();
  sys.run_cycles(100);
  const std::string path = "snap_ver.state";
  std::string err;
  ASSERT_TRUE(save_snapshot(sys, path, &err)) << err;

  // The u32 version sits right after the 8-byte magic; the checksum is the
  // trailing 8 bytes.
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 24u);
  for (int i = 0; i < 4; ++i)
    bytes[8 + static_cast<std::size_t>(i)] =
        static_cast<char>((version >> (8 * i)) & 0xff);
  const std::uint64_t sum =
      fnv1a(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i)
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  write_file(path, bytes);

  System fresh(cfg);
  err.clear();
  EXPECT_EQ(load_snapshot(&fresh, path, &err), SnapshotStatus::Error);
  EXPECT_NE(err.find("unsupported snapshot version"), std::string::npos)
      << err;
  std::remove(path.c_str());
}

TEST(SnapshotRejection, FutureFormatVersionIsRefused) {
  expect_version_refused(kSnapshotVersion + 1);
}

// Version 1 files carried the NI's tombstoned origin table and scan-memo
// generation, which this build's NI section would misparse.
TEST(SnapshotRejection, OlderFormatVersionIsRefused) {
  static_assert(kSnapshotVersion > 1, "an older format must exist");
  expect_version_refused(kSnapshotVersion - 1);
}

// The pool section lists pinned messages by source-node bucket; a message
// filed under another node's bucket is corrupt and must not be re-pinned.
TEST(SnapshotRejection, PoolMessageInAnotherNodesBucketIsRefused) {
  auto m = std::make_shared<Message>();
  m->id = 42;
  m->src = 2;
  m->dest = 0;
  for (std::uint64_t bucket : {2, 1}) {
    SCOPED_TRACE("saved in bucket " + std::to_string(bucket));
    StateWriter w;
    w.u64(4);
    for (std::uint64_t b = 0; b < 4; ++b) {
      w.u64(b == bucket ? 1 : 0);
      if (b == bucket) save_msg_ref(w, m);
    }
    StateReader r(w.data());
    r.put_shared(m->id, m);
    MessagePool pool(4);
    if (bucket == 2) {
      EXPECT_TRUE(pool.load(r)) << r.error();
      EXPECT_EQ(pool.pinned(), 1u);
      continue;
    }
    EXPECT_FALSE(pool.load(r));
    EXPECT_NE(r.error().find("message 42 from node 2 saved in the bucket of "
                             "node 1"),
              std::string::npos)
        << r.error();
    EXPECT_EQ(pool.pinned(), 0u);
  }
}

TEST(SnapshotRejection, ConfigMismatchNamesTheFirstDifferingField) {
  const SystemConfig cfg = combo_config(TopologyKind::Mesh,
                                        Protocol::FullMapMESI, /*seed=*/5);
  System sys(cfg);
  sys.prewarm();
  sys.run_cycles(100);
  const std::string path = "snap_cfg.state";
  std::string err;
  ASSERT_TRUE(save_snapshot(sys, path, &err)) << err;

  SystemConfig other = cfg;
  other.seed = cfg.seed + 1;
  System fresh(other);
  err.clear();
  EXPECT_EQ(load_snapshot(&fresh, path, &err), SnapshotStatus::ConfigMismatch);
  EXPECT_NE(err.find("seed"), std::string::npos) << err;

  // Relaxed fields must NOT mismatch: a different measurement length loads.
  SystemConfig longer = cfg;
  longer.measure_cycles = cfg.measure_cycles * 2;
  System fresh2(longer);
  err.clear();
  EXPECT_EQ(load_snapshot(&fresh2, path, &err), SnapshotStatus::Ok) << err;
  std::remove(path.c_str());
}

TEST(SnapshotWarmKeys, GroupOnlyRelaxedKnobs) {
  // warm_group_hash must ignore exactly the relaxed digest fields: equal for
  // configs differing only in measure length / shards, different otherwise.
  const SystemConfig base = combo_config(TopologyKind::Mesh,
                                         Protocol::FullMapMESI, /*seed=*/5);
  SystemConfig relaxed = base;
  relaxed.measure_cycles *= 3;
  relaxed.shards = 4;
  EXPECT_EQ(warm_group_hash(base), warm_group_hash(relaxed));

  SystemConfig strict = base;
  strict.seed += 1;
  EXPECT_NE(warm_group_hash(base), warm_group_hash(strict));
  SystemConfig strict2 = base;
  strict2.warmup_cycles += 1;
  EXPECT_NE(warm_group_hash(base), warm_group_hash(strict2));
}

}  // namespace
}  // namespace rc
