// Tests for the RC_CHECK runtime invariant checker (sim/validator.hpp):
// environment-gated attachment, clean runs across circuit variants,
// passivity (observation never changes results), detection of planted
// corruption, the hang watchdog, and strict RC_HANG_CYCLES validation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "circuits/circuit_manager.hpp"
#include "noc/network.hpp"
#include "noc/router.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"
#include "sim/system.hpp"
#include "sim/validator.hpp"

using namespace rc;

namespace {

/// Scoped environment variable: set (or unset with nullptr) on entry,
/// restore the previous state on exit so tests can't leak settings.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~EnvGuard() {
    if (had_old_)
      setenv(name_, old_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  std::string old_;
  bool had_old_;
};

SystemConfig small_cfg(const std::string& preset, Cycle warmup = 300,
                       Cycle measure = 1'200) {
  SystemConfig cfg = make_system_config(16, preset, "fft", 3);
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  return cfg;
}

TEST(Validator, AttachmentFollowsEnvironment) {
  {
    EnvGuard off("RC_CHECK", nullptr);
    System sys(small_cfg("Baseline"));
    EXPECT_EQ(sys.validator(), nullptr);
  }
  {
    EnvGuard zero("RC_CHECK", "0");
    System sys(small_cfg("Baseline"));
    EXPECT_EQ(sys.validator(), nullptr);
  }
  {
    EnvGuard on("RC_CHECK", "1");
    EnvGuard hang("RC_HANG_CYCLES", nullptr);
    System sys(small_cfg("Baseline"));
    ASSERT_NE(sys.validator(), nullptr);
    EXPECT_EQ(sys.validator()->hang_cycles(), 20'000u);
    EXPECT_EQ(sys.validator()->cycles_checked(), 0u);
  }
}

TEST(Validator, HangCyclesOverrideRespected) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", "123");
  System sys(small_cfg("Baseline"));
  ASSERT_NE(sys.validator(), nullptr);
  EXPECT_EQ(sys.validator()->hang_cycles(), 123u);
}

// Every circuit variant runs clean under the checker: no false positives
// from the credit-conservation, table-structure or non-blocking scans.
TEST(Validator, CleanRunAcrossVariants) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", nullptr);
  for (const char* preset :
       {"Baseline", "Complete_NoAck", "Fragmented", "Timed_NoAck",
        "SlackDelay1_NoAck", "Ideal"}) {
    SCOPED_TRACE(preset);
    SystemConfig cfg = small_cfg(preset);
    System sys(cfg);
    ASSERT_NE(sys.validator(), nullptr);
    EXPECT_NO_THROW(sys.run());
    // Scans ran every simulated cycle (warm-up included).
    EXPECT_GE(sys.validator()->cycles_checked(),
              cfg.warmup_cycles + cfg.measure_cycles);
  }
}

// Observation is passive: enabling RC_CHECK must not change a single
// architectural outcome.
TEST(Validator, ObservationIsPassive) {
  SystemConfig cfg = small_cfg("SlackDelay1_NoAck", 500, 2'000);
  std::uint64_t retired_plain, flits_plain;
  {
    EnvGuard off("RC_CHECK", nullptr);
    System sys(cfg);
    sys.run();
    retired_plain = sys.total_retired();
    flits_plain = sys.network().merged_stats().counter_value("ni_inject_flit");
  }
  EnvGuard on("RC_CHECK", "1");
  System sys(cfg);
  ASSERT_NE(sys.validator(), nullptr);
  sys.run();
  EXPECT_EQ(sys.total_retired(), retired_plain);
  EXPECT_EQ(sys.network().merged_stats().counter_value("ni_inject_flit"),
            flits_plain);
}

CircuitEntry bogus_entry(NodeId src, Port out) {
  CircuitEntry e;
  e.src = src;
  e.dest = 0;
  e.addr = 0x1000;
  e.out_port = out;
  e.owner_req = 99;
  return e;
}

// Planted corruption: two live circuits from different sources at one input
// port violate the §4.2 same-source rule and must be caught on the next
// network cycle.
TEST(Validator, DetectsSameSourceViolation) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", nullptr);
  SystemConfig cfg = small_cfg("Complete_NoAck");
  cfg.workload = "none";  // quiet fabric: only the planted entries exist
  System sys(cfg);
  ASSERT_NE(sys.validator(), nullptr);
  EXPECT_NO_THROW(sys.run_cycles(10));
  CircuitTable& t = sys.network().router(5).circuits().table(0);
  ASSERT_TRUE(t.insert(bogus_entry(/*src=*/1, /*out=*/1), sys.now()));
  CircuitEntry second = bogus_entry(/*src=*/2, /*out=*/2);
  second.addr = 0x2000;
  ASSERT_TRUE(t.insert(second, sys.now()));
  EXPECT_THROW(sys.run_cycles(1), FatalError);
}

// Two circuits from different input ports claiming the same output port
// violate the §4.2 exclusive-output rule.
TEST(Validator, DetectsOutputConflictViolation) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", nullptr);
  SystemConfig cfg = small_cfg("Complete_NoAck");
  cfg.workload = "none";
  System sys(cfg);
  ASSERT_NE(sys.validator(), nullptr);
  EXPECT_NO_THROW(sys.run_cycles(10));
  Router& r = sys.network().router(5);
  ASSERT_TRUE(r.circuits().table(0).insert(bogus_entry(1, /*out=*/2),
                                           sys.now()));
  CircuitEntry other = bogus_entry(1, /*out=*/2);
  other.addr = 0x2000;
  ASSERT_TRUE(r.circuits().table(1).insert(other, sys.now()));
  EXPECT_THROW(sys.run_cycles(1), FatalError);
}

// With an absurdly small watchdog window any real workload trips it: the
// failure path (flight trace + circuit dump + fatal) must fire, not hang.
TEST(Validator, WatchdogFiresOnTinyWindow) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", "1");
  System sys(small_cfg("Baseline"));
  ASSERT_NE(sys.validator(), nullptr);
  EXPECT_THROW(sys.run_cycles(5'000), FatalError);
}

// Push a few transactions one at a time through a core-less system, then
// let it drain: nothing is in flight, every circuit entry was used or
// undone (none outlives its transaction) and, under Fragmented, every
// claimed circuit VC was released with its circuit. check_idle passes.
TEST(Validator, IdleFabricChecksClean) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", nullptr);
  for (const auto& [preset, accesses] :
       {std::pair<const char*, int>{"Complete_NoAck", 4}, {"Fragmented", 6}}) {
    SCOPED_TRACE(preset);
    SystemConfig cfg = small_cfg(preset);
    cfg.workload = "none";
    System sys(cfg);
    ASSERT_NE(sys.validator(), nullptr);
    for (NodeId n = 0; n < accesses; ++n) {
      bool done = false;
      sys.l1(n).set_complete([&](Cycle) { done = true; });
      ASSERT_TRUE(sys.l1(n).access((5 + n) * kLineBytes, false, sys.now()));
      for (int i = 0; i < 4'000 && !done; ++i) sys.run_cycles(1);
      ASSERT_TRUE(done);
    }
    sys.run_cycles(500);  // drain ACKs / writebacks
    EXPECT_TRUE(sys.network().idle());
    EXPECT_EQ(sys.validator()->in_flight(), 0u);
    EXPECT_NO_THROW(sys.validator()->check_idle(sys.now()));
  }
}

// A reservation nobody rides is a leak once the system has drained, even
// though no message is bound to it.
TEST(Validator, IdleCheckFlagsLeakedUnboundEntry) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", nullptr);
  SystemConfig cfg = small_cfg("Complete_NoAck");
  cfg.workload = "none";
  System sys(cfg);
  ASSERT_NE(sys.validator(), nullptr);
  sys.run_cycles(10);
  ASSERT_NO_THROW(sys.validator()->check_idle(sys.now()));
  ASSERT_TRUE(sys.network().router(5).circuits().table(0).insert(
      bogus_entry(/*src=*/1, /*out=*/1), sys.now()));
  EXPECT_THROW(sys.validator()->check_idle(sys.now()), FatalError);
}

// The raw-NoC synthetic driver attaches the checker too (rc-repro's load
// sweep inherits self-checking the same way).
TEST(Validator, SyntheticTrafficAttaches) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", nullptr);
  NocConfig noc = make_system_config(16, "SlackDelay1_NoAck", "fft", 3).noc;
  SyntheticTraffic st(noc, /*rate=*/0.02, /*service_cycles=*/20, /*seed=*/1);
  ASSERT_NE(st.validator(), nullptr);
  st.run(/*warmup=*/200, /*measure=*/800);
  EXPECT_GE(st.validator()->cycles_checked(), 1'000u);
}

// RC_HANG_CYCLES is validated strictly on attach: zero or garbage must be
// a hard configuration error (exit 2), never a silently-disabled watchdog.
TEST(ValidatorDeathTest, RejectsZeroHangCycles) {
  EXPECT_EXIT(
      {
        setenv("RC_CHECK", "1", 1);
        setenv("RC_HANG_CYCLES", "0", 1);
        System sys(small_cfg("Baseline"));
      },
      testing::ExitedWithCode(2), "not a positive integer");
}

TEST(ValidatorDeathTest, RejectsNonNumericHangCycles) {
  EXPECT_EXIT(
      {
        setenv("RC_CHECK", "1", 1);
        setenv("RC_HANG_CYCLES", "soon", 1);
        System sys(small_cfg("Baseline"));
      },
      testing::ExitedWithCode(2), "not a positive integer");
}

}  // namespace
