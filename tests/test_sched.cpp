// Frontier-scheduler suite (label: sched).
//
// The activity-frontier engine promises two things:
//  * scheduling is unobservable — statistics are byte-identical across
//    shard counts and tick modes (Activity's skip of a quiescent component
//    is a no-op by construction), including on the non-mesh topologies
//    whose wrap links and concentration change the wake patterns; and
//  * the self-checks notice when that promise is broken — a stale frontier
//    (a component asleep past its pending work, i.e. a lost wake) strands
//    in-flight messages, which RC_CHECK's hang watchdog must report.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/schedule.hpp"
#include "common/types.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"
#include "sim/system.hpp"
#include "sim/validator.hpp"

using namespace rc;

namespace {

// Set an environment variable for the current scope, restoring the prior
// value on destruction (the `check` preset exports RC_CHECK to every test,
// so tests must not clobber it permanently).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      setenv(name_, old_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

// Exact (bit-identical) comparison over the union of both stat sets.
void expect_stats_equal(const StatSet& a, const StatSet& b,
                        const std::string& what) {
  for (const auto& [k, v] : a.counters())
    EXPECT_EQ(v, b.counter_value(k)) << what << " counter " << k;
  for (const auto& [k, v] : b.counters())
    EXPECT_EQ(v, a.counter_value(k)) << what << " counter " << k;
  EXPECT_EQ(a.accumulators().size(), b.accumulators().size()) << what;
  for (const auto& [k, acc] : a.accumulators()) {
    const Accumulator* o = b.find_acc(k);
    ASSERT_NE(o, nullptr) << what << " accumulator " << k;
    EXPECT_TRUE(acc == *o) << what << " accumulator " << k;
  }
}

SyntheticResult run_synthetic(TopologyKind topo, int shards, bool verify,
                              Cycle measure) {
  ScopedEnv tv("RC_VERIFY_TICKS", verify ? "1" : "0");
  NocConfig cfg = make_system_config(64, "SlackDelay1_NoAck", "fft", 1).noc;
  cfg.topology = topo;
  // The tick mode is resolved from the environment when the Network is
  // constructed, so the driver must be built inside the ScopedEnv.
  SyntheticTraffic t(cfg, /*rate=*/0.05, /*service=*/7, /*seed=*/1, shards);
  return t.run(/*warmup=*/500, measure);
}

TEST(SchedIdentity, TorusAndCMeshBitIdenticalAcrossShardsAndTickModes) {
  // Under RC_CHECK the Validator's per-cycle scans multiply runtime, so the
  // sweep shrinks (the default configuration runs the full matrix).
  const bool checked = Validator::enabled_by_env();
  const Cycle measure = checked ? 1'500 : 3'000;
  const std::vector<TopologyKind> topos =
      checked ? std::vector<TopologyKind>{TopologyKind::Torus}
              : std::vector<TopologyKind>{TopologyKind::Torus,
                                          TopologyKind::CMesh};
  const std::vector<int> shard_counts =
      checked ? std::vector<int>{2} : std::vector<int>{1, 2, 4};
  for (TopologyKind topo : topos) {
    const SyntheticResult ref = run_synthetic(topo, 1, false, measure);
    EXPECT_GT(ref.requests_done, 0u) << to_string(topo);
    for (int shards : shard_counts) {
      for (bool verify : {false, true}) {
        if (shards == 1 && !verify) continue;  // that is the reference
        const SyntheticResult r = run_synthetic(topo, shards, verify, measure);
        const std::string what = std::string(to_string(topo)) +
                                 " shards=" + std::to_string(shards) +
                                 (verify ? " verify" : " activity");
        EXPECT_EQ(ref.requests_done, r.requests_done) << what;
        EXPECT_EQ(ref.request_latency, r.request_latency) << what;
        EXPECT_EQ(ref.reply_latency, r.reply_latency) << what;
        EXPECT_EQ(ref.circuit_use, r.circuit_use) << what;
        expect_stats_equal(ref.net, r.net, what);
      }
    }
  }
}

TEST(SchedWatchdog, PlantedStaleFrontierIsCaughtByHangWatchdog) {
  // Plant the bug the Verify mode exists to rule out: a component whose
  // wake stamp claims "no pending work" while messages head its way. The
  // re-plant after every cycle models a lost wake (pipes re-wake the router
  // during the cycle; discarding that wake is exactly the stale-frontier
  // failure). Messages routed through the dead router then age past
  // RC_HANG_CYCLES and the watchdog must abort the run.
  //
  // The plant only bites in Activity mode — Verify ticks every component
  // regardless of its stamp — so the tick override is pinned off for this
  // test (the `_verify_ticks` suite variant sets it).
  ScopedEnv tv("RC_VERIFY_TICKS", "0");
  ScopedEnv check("RC_CHECK", "1");
  ScopedEnv hang("RC_HANG_CYCLES", "1500");
  SystemConfig cfg = make_system_config(16, "SlackDelay1_NoAck", "fft", 1);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1;  // unused; run_cycles is driven directly
  cfg.shards = 2;
  System sys(cfg);
  sys.prewarm();
  sys.run_cycles(300);  // healthy start: traffic in flight everywhere
  bool caught = false;
  try {
    for (int i = 0; i < 5'000; ++i) {
      sys.network().router(5).sleep_until(kNeverCycle);
      sys.run_cycles(1);
    }
  } catch (const FatalError& e) {
    caught = true;
    EXPECT_NE(std::string(e.what()).find("RC_HANG_CYCLES"),
              std::string::npos)
        << "expected the hang watchdog, got: " << e.what();
  }
  EXPECT_TRUE(caught) << "stale frontier went unnoticed for 5000 cycles";
}

TEST(SchedWatchdog, UnmodifiedRunPassesTheSameChecks) {
  // Control for the planted-bug test: the identical configuration without
  // the plant must sail through the same validator and watchdog settings.
  ScopedEnv check("RC_CHECK", "1");
  ScopedEnv hang("RC_HANG_CYCLES", "1500");
  SystemConfig cfg = make_system_config(16, "SlackDelay1_NoAck", "fft", 1);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1;
  cfg.shards = 2;
  System sys(cfg);
  sys.prewarm();
  EXPECT_NO_THROW(sys.run_cycles(5'000));
}

}  // namespace
