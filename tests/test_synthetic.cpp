// Synthetic traffic driver tests (the §5.5 load-sweep substrate).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/state.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"

#ifndef RC_GOLDEN_DIR
#error "RC_GOLDEN_DIR must point at tests/golden"
#endif

namespace rc {
namespace {

NocConfig cfg_for(const std::string& preset) {
  return make_system_config(16, preset, "fft").noc;
}

TEST(Synthetic, GeneratesAndCompletesTraffic) {
  SyntheticTraffic t(cfg_for("Baseline"), /*rate=*/0.01, /*service=*/7, 42);
  SyntheticResult r = t.run(1'000, 10'000);
  EXPECT_GT(r.requests_done, 1'000u);
  EXPECT_GT(r.request_latency, 10.0);
  EXPECT_GT(r.reply_latency, 10.0);
  EXPECT_EQ(r.circuit_use, 0.0);  // baseline has no circuits
}

TEST(Synthetic, CircuitsRideUnderLightLoad) {
  SyntheticTraffic t(cfg_for("Complete_NoAck"), 0.002, 7, 42);
  SyntheticResult r = t.run(1'000, 10'000);
  EXPECT_GT(r.circuit_use, 0.5);
}

TEST(Synthetic, CircuitLatencyBeatsBaseline) {
  SyntheticTraffic base(cfg_for("Baseline"), 0.005, 7, 42);
  SyntheticTraffic circ(cfg_for("SlackDelay1_NoAck"), 0.005, 7, 42);
  SyntheticResult rb = base.run(1'000, 10'000);
  SyntheticResult rc_ = circ.run(1'000, 10'000);
  EXPECT_LT(rc_.reply_latency, rb.reply_latency);
}

TEST(Synthetic, UntimedCircuitUseCollapsesUnderLoad) {
  // §5.5: reservations held between setup and use stop being grantable as
  // traffic grows.
  SyntheticTraffic light(cfg_for("Complete_NoAck"), 0.002, 7, 42);
  SyntheticTraffic heavy(cfg_for("Complete_NoAck"), 0.03, 7, 42);
  double lo = light.run(1'000, 8'000).circuit_use;
  double hi = heavy.run(1'000, 8'000).circuit_use;
  EXPECT_LT(hi, lo * 0.7);
}

TEST(Synthetic, TimedKeepsHigherThreshold) {
  const double rate = 0.02;
  SyntheticTraffic untimed(cfg_for("Complete_NoAck"), rate, 7, 42);
  SyntheticTraffic timed(cfg_for("SlackDelay1_NoAck"), rate, 7, 42);
  double u = untimed.run(1'000, 8'000).circuit_use;
  double t = timed.run(1'000, 8'000).circuit_use;
  EXPECT_GT(t, u);
}

TEST(Synthetic, Deterministic) {
  SyntheticTraffic a(cfg_for("Complete_NoAck"), 0.01, 7, 9);
  SyntheticTraffic b(cfg_for("Complete_NoAck"), 0.01, 7, 9);
  SyntheticResult ra = a.run(500, 4'000);
  SyntheticResult rb = b.run(500, 4'000);
  EXPECT_EQ(ra.requests_done, rb.requests_done);
  EXPECT_DOUBLE_EQ(ra.reply_latency, rb.reply_latency);
}

// Saturated-backlog identity golden: an 8x8 mesh driven past the knee, so
// every NI holds a deep reply backlog (held for timed slots, blocked on
// reply VCs, waiting on undone or scrounged circuits). The digest covers
// every merged counter, accumulator and histogram, so any change to the
// order in which queued replies start injecting shows up here. One run per
// preset that takes a distinct NI injection path.
std::uint64_t stats_digest(const StatSet& s) {
  std::uint64_t h = kFnv1aInit;
  auto str = [&h](const std::string& k) { h = fnv1a(k.c_str(), k.size() + 1, h); };
  auto pod = [&h](auto v) { h = fnv1a(&v, sizeof v, h); };
  for (const auto& [k, v] : s.counters()) str(k), pod(v);
  for (const auto& [k, a] : s.accumulators()) {
    str(k);
    pod(a.count()), pod(a.sum()), pod(a.min()), pod(a.max()), pod(a.variance());
  }
  for (const auto& [k, hist] : s.histograms()) {
    str(k);
    h = fnv1a(hist.buckets(), sizeof(std::uint64_t) * Histogram::kBuckets, h);
  }
  return h;
}

/// Digest recorded for `preset` in tests/golden/synthetic_saturated.txt
/// ("<preset> <hex digest>" lines, '#' comments).
std::string golden_digest(const std::string& preset) {
  std::ifstream in(RC_GOLDEN_DIR "/synthetic_saturated.txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name, hex;
    if (ls >> name >> hex && name == preset) return hex;
  }
  return "";
}

class SaturatedGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(SaturatedGolden, BacklogInjectionOrderUnchanged) {
  const std::string preset = GetParam();
  SyntheticTraffic t(make_system_config(64, preset, "fft").noc,
                     /*rate=*/0.08, /*service=*/7, /*seed=*/4242);
  SyntheticResult r = t.run(1'000, 3'000);
  ASSERT_GT(r.reply_queueing, 100.0) << "not past the knee";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(stats_digest(r.net)));
  EXPECT_EQ(hex, golden_digest(preset))
      << "re-record only for a deliberate behaviour change: " << preset << " "
      << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, SaturatedGolden,
    ::testing::Values("Baseline", "Fragmented", "Complete_NoAck",
                      "Reuse_NoAck", "SlackDelay1_NoAck", "Postponed1_NoAck"),
    [](const ::testing::TestParamInfo<const char*>& i) {
      return std::string(i.param);
    });

}  // namespace
}  // namespace rc
