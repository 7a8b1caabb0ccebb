// Tests for the extensions beyond the paper's core mechanism: config
// validation, histograms, the heterogeneous SPEC mix, and the
// L2-intermediary protocol variant.
#include <gtest/gtest.h>

#include <set>

#include "common/stats.hpp"
#include "cpu/apps.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

namespace rc {
namespace {

// ---------------------------------------------------------------- validate
TEST(Validate, AllPresetsAreValid) {
  for (const auto& p : preset_names())
    for (int cores : {16, 64})
      EXPECT_EQ(make_system_config(cores, p, "fft").validate(), "") << p;
}

TEST(Validate, RejectsNoAckWithoutCircuits) {
  SystemConfig cfg = make_system_config(16, "Baseline", "fft");
  cfg.noc.circuit.no_ack = true;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Validate, RejectsNoAckOnFragmented) {
  SystemConfig cfg = make_system_config(16, "Fragmented", "fft");
  cfg.noc.circuit.no_ack = true;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Validate, RejectsTimedScrounging) {
  SystemConfig cfg = make_system_config(16, "SlackDelay1_NoAck", "fft");
  cfg.noc.circuit.reuse = true;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Validate, RejectsMissingNonCircuitVc) {
  SystemConfig cfg = make_system_config(16, "Complete", "fft");
  cfg.noc.vcs_reply_vn = 1;  // only the circuit VC would remain
  EXPECT_NE(cfg.validate(), "");
}

TEST(Validate, RejectsBadPartition) {
  SystemConfig cfg = make_system_config(16, "Baseline", "fft");
  cfg.partition_side = 3;  // does not divide 4
  EXPECT_NE(cfg.validate(), "");
  cfg.partition_side = 2;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Validate, RejectsOversizedMesh) {
  // The directory sharer set grows with the fabric now (SharerSet), so
  // 16x8 = 128 nodes is legal; only absurd dimensions are rejected.
  SystemConfig cfg = make_system_config(64, "Baseline", "fft");
  cfg.noc.mesh_w = 16;
  EXPECT_EQ(cfg.validate(), "");
  cfg.noc.mesh_w = kMaxMeshSide;
  EXPECT_EQ(cfg.validate(), "");
  cfg.noc.mesh_w = kMaxMeshSide + 1;
  EXPECT_NE(cfg.validate(), "");
  cfg.noc.mesh_w = 0;
  EXPECT_NE(cfg.validate(), "");
  cfg.noc.mesh_w = -3;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Validate, RejectsZeroSlackOnSlackVariants) {
  SystemConfig cfg = make_system_config(16, "Slack1_NoAck", "fft");
  cfg.noc.circuit.slack_per_hop = 0;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Validate, RejectsVcCountsPastTheNiAndRouterLimits) {
  // The NI tracks kMaxVcsPerVn VCs per VN; a router's VA masks hold one bit
  // per (port, VC) in 64 bits, so kMaxVcsTotal VCs in all.
  SystemConfig cfg = make_system_config(16, "Baseline", "fft");
  cfg.noc.vcs_request_vn = kMaxVcsPerVn;
  cfg.noc.vcs_reply_vn = kMaxVcsTotal - kMaxVcsPerVn;
  EXPECT_EQ(cfg.validate(), "");
  cfg.noc.vcs_request_vn = kMaxVcsPerVn + 1;
  cfg.noc.vcs_reply_vn = 2;
  EXPECT_NE(cfg.validate().find("at most 8 VCs"), std::string::npos);
  cfg.noc.vcs_request_vn = 2;
  cfg.noc.vcs_reply_vn = kMaxVcsPerVn + 1;
  EXPECT_NE(cfg.validate().find("at most 8 VCs"), std::string::npos);
  cfg.noc.vcs_request_vn = 7;
  cfg.noc.vcs_reply_vn = 6;
  EXPECT_NE(cfg.validate().find("at most 12 VCs in total"), std::string::npos);
}

TEST(Validate, LargestLegalVcCountRuns) {
  SystemConfig cfg = make_system_config(16, "Complete_NoAck", "fft");
  cfg.noc.vcs_request_vn = kMaxVcsPerVn;
  cfg.noc.vcs_reply_vn = kMaxVcsTotal - kMaxVcsPerVn;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  ASSERT_EQ(cfg.validate(), "");
  EXPECT_GT(run_config(cfg, "vcs_8_4").retired, 0u);
}

// --------------------------------------------------------------- histogram
TEST(HistogramTest, CountsAndBuckets) {
  Histogram h;
  h.add(0.5);   // bucket 0
  h.add(1.0);   // bucket 1
  h.add(3.0);   // bucket 2
  h.add(100.0); // bucket 7 ([64,128))
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[7], 1u);
}

TEST(HistogramTest, PercentileIsConservativeUpperEdge) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(10.0);   // bucket [8,16)
  for (int i = 0; i < 10; ++i) h.add(200.0);  // bucket [128,256)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 16.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.9), 16.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 256.0);
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a, b;
  a.add(2.0);
  b.add(2.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.percentile(0.5), 0.0);
}

TEST(HistogramTest, RecordedDuringRuns) {
  RunResult r = run_one(16, "Baseline", "fft", 3, 3'000, 8'000);
  const Histogram* h = r.net.find_hist("hist_rep_circ");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 100u);
  EXPECT_GE(h->percentile(0.95), h->percentile(0.5));
}

// -------------------------------------------------------------------- mix
TEST(SpecMix, SixteenModels) {
  EXPECT_EQ(spec_app_names().size(), 16u);
  for (const auto& n : spec_app_names()) {
    AppProfile p = spec_profile(n);
    EXPECT_EQ(p.p_shared, 0.0) << n;   // multiprogrammed: no sharing
    EXPECT_GE(p.private_lines, 6144u) << n;  // "large working set"
  }
}

TEST(SpecMix, AssignmentCoversAllAppsEvenly) {
  auto profs16 = core_profiles("mix", 16, 7);
  auto profs64 = core_profiles("mix", 64, 7);
  std::map<std::string, int> c16, c64;
  for (auto& p : profs16) ++c16[p.name];
  for (auto& p : profs64) ++c64[p.name];
  EXPECT_EQ(c16.size(), 16u);
  for (auto& [n, k] : c16) EXPECT_EQ(k, 1) << n;
  EXPECT_EQ(c64.size(), 16u);
  for (auto& [n, k] : c64) EXPECT_EQ(k, 4) << n;  // §5.1: each app 4 times
}

TEST(SpecMix, AssignmentIsSeededButShuffled) {
  auto a = core_profiles("mix", 64, 7);
  auto b = core_profiles("mix", 64, 7);
  auto c = core_profiles("mix", 64, 8);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i].name, b[i].name);
  int diff = 0;
  for (int i = 0; i < 64; ++i) diff += a[i].name != c[i].name;
  EXPECT_GT(diff, 16);  // a different seed reshuffles most slots
}

TEST(SpecMix, HomogeneousWorkloadsUnchanged) {
  auto profs = core_profiles("fft", 16, 3);
  for (auto& p : profs) EXPECT_EQ(p.name, "fft");
}

TEST(SpecMix, MixRunsGenerateMemoryTraffic) {
  RunResult r = run_one(64, "Baseline", "mix", 3, 5'000, 10'000);
  EXPECT_GT(r.sys.counter_value("mem_reads"), 100u);
  // No sharing: no write-triggered invalidation rounds (the few Inv
  // messages that can appear are inclusive-L2 eviction recalls).
  EXPECT_EQ(r.sys.counter_value("l2_invalidation_rounds"), 0u);
  EXPECT_EQ(r.net.counter_value("msg_L1ToL1"), 0u);
}

// ---------------------------------------------------- L2 intermediary mode
struct ProtoHarness {
  explicit ProtoHarness(bool direct) {
    SystemConfig cfg = make_system_config(16, "Complete_NoAck", "fft");
    cfg.workload = "none";
    cfg.cache.direct_l1_transfers = direct;
    sys = std::make_unique<System>(cfg);
  }
  void access(NodeId n, Addr a, bool w) {
    bool done = false;
    sys->l1(n).set_complete([&](Cycle) { done = true; });
    ASSERT_TRUE(sys->l1(n).access(a, w, sys->now()));
    for (int i = 0; i < 4000 && !done; ++i) sys->run_cycles(1);
    ASSERT_TRUE(done);
    sys->run_cycles(120);
  }
  std::unique_ptr<System> sys;
};

TEST(Intermediary, ReadRecallKeepsOwnerShared) {
  ProtoHarness h(/*direct=*/false);
  Addr a = 5 * kLineBytes;
  h.access(0, a, true);   // node 0 owns M
  h.access(1, a, false);  // recall: L2 supplies, owner downgrades to S
  EXPECT_EQ(h.sys->l1(0).state_of(a), L1State::S);
  EXPECT_EQ(h.sys->l1(1).state_of(a), L1State::S);
  EXPECT_EQ(h.sys->network().merged_stats().counter_value("msg_L1ToL1"), 0u);
  EXPECT_EQ(h.sys->network().merged_stats().counter_value("msg_FwdGetS"), 0u);
  EXPECT_EQ(h.sys->merged_sys_stats().counter_value("l2_recalls"), 1u);
}

TEST(Intermediary, WriteRecallInvalidatesOwner) {
  ProtoHarness h(false);
  Addr a = 5 * kLineBytes;
  h.access(0, a, true);
  h.access(1, a, true);
  EXPECT_EQ(h.sys->l1(0).state_of(a), L1State::I);
  EXPECT_EQ(h.sys->l1(1).state_of(a), L1State::M);
  EXPECT_EQ(h.sys->network().merged_stats().counter_value("msg_FwdGetX"), 0u);
}

TEST(Intermediary, SameStatesAsDirectProtocol) {
  for (bool direct : {true, false}) {
    ProtoHarness h(direct);
    Addr a = 5 * kLineBytes;
    h.access(0, a, false);
    h.access(1, a, false);
    h.access(2, a, true);
    EXPECT_EQ(h.sys->l1(2).state_of(a), L1State::M) << direct;
    EXPECT_EQ(h.sys->l1(0).state_of(a), L1State::I) << direct;
    EXPECT_EQ(h.sys->l1(1).state_of(a), L1State::I) << direct;
  }
}

TEST(Intermediary, NoCircuitUndoneByProtocol) {
  // Without direct transfers the forward case disappears, so the protocol
  // never tears a circuit down.
  SystemConfig cfg = make_system_config(16, "Complete_NoAck", "barnes", 3);
  cfg.cache.direct_l1_transfers = false;
  cfg.warmup_cycles = 4'000;
  cfg.measure_cycles = 10'000;
  RunResult r = run_config(cfg, "via-L2");
  EXPECT_EQ(r.net.counter_value("msg_L1ToL1"), 0u);
  EXPECT_EQ(r.net.counter_value("reply_undone"), 0u);
}

}  // namespace
}  // namespace rc
