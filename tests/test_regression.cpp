// Golden regression guard: one fixed configuration's exact counters.
//
// The simulator is bit-deterministic, so any change to these values means
// simulated *behaviour* changed. If you changed behaviour intentionally,
// re-record the goldens (instructions below); if not, you found a bug.
//
// To re-record: run this test, copy the values from the failure output into
// kGolden, and note the behavioural change in your commit message.
#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

namespace rc {
namespace {

struct Golden {
  std::uint64_t retired, gets, used, eliminated, reservations, flits;
};

// 16 cores, SlackDelay1_NoAck, fft, seed 3, warmup 2000, measure 6000.
constexpr Golden kGolden{25448, 921, 914, 908, 4053, 7528};

TEST(Regression, GoldenCountersUnchanged) {
  RunResult r = run_one(16, "SlackDelay1_NoAck", "fft", 3, 2'000, 6'000);
  EXPECT_EQ(r.retired, kGolden.retired);
  EXPECT_EQ(r.net.counter_value("msg_GetS"), kGolden.gets);
  EXPECT_EQ(r.net.counter_value("reply_used"), kGolden.used);
  EXPECT_EQ(r.sys.counter_value("replies_eliminated"), kGolden.eliminated);
  EXPECT_EQ(r.net.counter_value("circ_reservations"), kGolden.reservations);
  EXPECT_EQ(r.net.counter_value("ni_inject_flit"), kGolden.flits);
}

TEST(Regression, FragmentedRetryQueueDoesNotSplitPackets) {
  // Fuzz-found: a flit arriving at a port whose circuit retry queue was
  // non-empty used to be detained unconditionally, even when it had no
  // possible circuit entry at that router. Its packet-mates (which arrived
  // while the queue was empty) took the normal pipeline, so the stranded
  // tail later landed in an Idle input VC and tripped the "packet must
  // start with a head flit" invariant. The fix lets a flit that cannot
  // interact with the circuit machinery fall through to the buffer.
  setenv("RC_CHECK", "1", 1);
  SystemConfig cfg = make_system_config(16, "Fragmented", "radiosity", 856246);
  cfg.noc.mesh_w = 8;
  cfg.noc.mesh_h = 8;
  cfg.noc.mc_placement = McPlacement::Corner;
  cfg.noc.vcs_request_vn = 1;
  cfg.noc.vcs_reply_vn = 3;
  cfg.noc.buffer_depth_flits = 2;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4'000;
  ASSERT_EQ(cfg.validate(), "");
  System sys(cfg);
  ASSERT_NE(sys.validator(), nullptr);
  EXPECT_NO_THROW(sys.run());
  EXPECT_GT(sys.total_retired(), 0u);
  unsetenv("RC_CHECK");
}

TEST(Regression, RectangularMeshesWork) {
  // Non-square meshes exercise the routing/edge logic asymmetrically.
  for (auto [w, h] : {std::pair{8, 2}, std::pair{2, 8}, std::pair{4, 8}}) {
    SystemConfig cfg = make_system_config(16, "SlackDelay1_NoAck", "fft", 3);
    cfg.noc.mesh_w = w;
    cfg.noc.mesh_h = h;
    cfg.warmup_cycles = 1'000;
    cfg.measure_cycles = 4'000;
    ASSERT_EQ(cfg.validate(), "") << w << "x" << h;
    RunResult r = run_config(cfg, "rect");
    EXPECT_GT(r.retired, 1'000u) << w << "x" << h;
    EXPECT_GT(r.net.counter_value("reply_used"), 0u) << w << "x" << h;
  }
}

}  // namespace
}  // namespace rc
