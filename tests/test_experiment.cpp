// Experiment-runner hardening and tick-scheduler equivalence tests:
//  * checked env/CLI parsing (parse_ll / env_positive_ll),
//  * run_config input validation (no NaN/inf IPC),
//  * Activity tick scheduling producing stats bit-identical to the
//    RC_VERIFY_TICKS / TickMode::Verify lockstep oracle.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/parse.hpp"
#include "common/schedule.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"
#include "sim/system.hpp"

using namespace rc;

namespace {

SystemConfig small_config(const std::string& preset, TickMode tick,
                          std::uint64_t seed = 1) {
  SystemConfig cfg = make_system_config(16, preset, "fft", seed);
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 5'000;
  cfg.noc.tick = tick;
  return cfg;
}

// Exact (bit-identical) comparison over the union of both stat sets.
void expect_stats_equal(const StatSet& a, const StatSet& b,
                        const char* what) {
  for (const auto& [k, v] : a.counters())
    EXPECT_EQ(v, b.counter_value(k)) << what << " counter " << k;
  for (const auto& [k, v] : b.counters())
    EXPECT_EQ(v, a.counter_value(k)) << what << " counter " << k;
  EXPECT_EQ(a.accumulators().size(), b.accumulators().size()) << what;
  for (const auto& [k, acc] : a.accumulators()) {
    const Accumulator* o = b.find_acc(k);
    ASSERT_NE(o, nullptr) << what << " accumulator " << k;
    EXPECT_EQ(acc.count(), o->count()) << what << " accumulator " << k;
    EXPECT_EQ(acc.sum(), o->sum()) << what << " accumulator " << k;
    EXPECT_EQ(acc.min(), o->min()) << what << " accumulator " << k;
    EXPECT_EQ(acc.max(), o->max()) << what << " accumulator " << k;
  }
}

}  // namespace

// ---------------------------------------------------------------- parsing

TEST(Parse, StrictIntegerParsing) {
  EXPECT_EQ(parse_ll("42").value_or(-1), 42);
  EXPECT_EQ(parse_ll("-7").value_or(1), -7);
  EXPECT_EQ(parse_ll("0").value_or(-1), 0);
  EXPECT_FALSE(parse_ll(nullptr).has_value());
  EXPECT_FALSE(parse_ll("").has_value());
  EXPECT_FALSE(parse_ll("garbage").has_value());
  EXPECT_FALSE(parse_ll("12abc").has_value());
  EXPECT_FALSE(parse_ll("4.5").has_value());
  EXPECT_FALSE(parse_ll("99999999999999999999999").has_value());  // overflow
}

TEST(Parse, EnvPositiveFallsBackWhenUnset) {
  unsetenv("RC_TEST_UNSET_KNOB");
  EXPECT_EQ(env_positive_ll("RC_TEST_UNSET_KNOB", 7), 7);
  setenv("RC_TEST_UNSET_KNOB", "12", 1);
  EXPECT_EQ(env_positive_ll("RC_TEST_UNSET_KNOB", 7), 12);
  unsetenv("RC_TEST_UNSET_KNOB");
}

TEST(ParseDeathTest, GarbageEnvValueExitsNonZero) {
  EXPECT_EXIT(
      {
        setenv("RC_TEST_BAD_KNOB", "garbage", 1);
        env_positive_ll("RC_TEST_BAD_KNOB", 1);
      },
      testing::ExitedWithCode(2), "not a positive integer");
  EXPECT_EXIT(
      {
        setenv("RC_TEST_BAD_KNOB", "0", 1);
        env_positive_ll("RC_TEST_BAD_KNOB", 1);
      },
      testing::ExitedWithCode(2), "not a positive integer");
}

// ------------------------------------------------------ run_config guards

TEST(RunConfig, RejectsZeroMeasureCycles) {
  SystemConfig cfg = small_config("Baseline", TickMode::Activity);
  cfg.measure_cycles = 0;
  EXPECT_THROW(run_config(cfg, "zero-measure"), FatalError);
}

TEST(RunConfig, RejectsInvalidMesh) {
  SystemConfig cfg = small_config("Baseline", TickMode::Activity);
  cfg.noc.mesh_w = 0;
  cfg.noc.mesh_h = 0;
  EXPECT_THROW(run_config(cfg, "no-cores"), FatalError);
}

// ------------------------------------------------- tick-mode equivalence

// TickMode::Verify ticks every component every cycle and asserts the
// activity bookkeeping would never have slept through pending work; a clean
// Verify run that matches Activity is the lockstep proof that skipping
// quiescent components changes nothing.
TEST(TickScheduling, ActivityMatchesVerifyOnFullSystem) {
  for (const char* preset : {"Baseline", "SlackDelay1_NoAck"}) {
    RunResult verify =
        run_config(small_config(preset, TickMode::Verify), preset);
    RunResult activity =
        run_config(small_config(preset, TickMode::Activity), preset);
    EXPECT_EQ(verify.retired, activity.retired) << preset;
    EXPECT_EQ(verify.ipc, activity.ipc) << preset;
    expect_stats_equal(verify.net, activity.net, preset);
    expect_stats_equal(verify.sys, activity.sys, preset);
  }
}

TEST(TickScheduling, ActivityMatchesVerifyOnSyntheticNetwork) {
  SystemConfig base = make_system_config(16, "Complete_NoAck", "fft", 1);
  auto run_mode = [&](TickMode m) {
    NocConfig noc = base.noc;
    noc.tick = m;
    SyntheticTraffic t(noc, /*rate=*/0.01, /*service_cycles=*/7, /*seed=*/3);
    return t.run(/*warmup=*/2'000, /*measure=*/6'000);
  };
  SyntheticResult verify = run_mode(TickMode::Verify);
  SyntheticResult activity = run_mode(TickMode::Activity);
  EXPECT_EQ(verify.requests_done, activity.requests_done);
  EXPECT_EQ(verify.request_latency, activity.request_latency);
  EXPECT_EQ(verify.reply_latency, activity.reply_latency);
  EXPECT_EQ(verify.circuit_use, activity.circuit_use);
  expect_stats_equal(verify.net, activity.net, "synthetic");
}

TEST(TickScheduling, EnvOverrideSelectsVerify) {
  setenv("RC_VERIFY_TICKS", "1", 1);
  EXPECT_EQ(effective_tick_mode(TickMode::Activity), TickMode::Verify);
  unsetenv("RC_VERIFY_TICKS");
  EXPECT_EQ(effective_tick_mode(TickMode::Activity), TickMode::Activity);
}
