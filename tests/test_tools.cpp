// Tooling tests: report tables and the remaining small public APIs
// (message helpers, presets).
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "noc/message.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

namespace rc {
namespace {

TEST(Report, TableFormatting) {
  EXPECT_EQ(Table::pct(0.1234), "12.3%");
  EXPECT_EQ(Table::pct(-0.05, 2), "-5.00%");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(MessageHelpers, VnetClassification) {
  EXPECT_EQ(vnet_of(MsgType::GetS), VNet::Request);
  EXPECT_EQ(vnet_of(MsgType::Inv), VNet::Request);
  EXPECT_EQ(vnet_of(MsgType::MemWb), VNet::Request);
  EXPECT_EQ(vnet_of(MsgType::L2Reply), VNet::Reply);
  EXPECT_EQ(vnet_of(MsgType::MemAck), VNet::Reply);
  EXPECT_EQ(vnet_of(MsgType::L1ToL1), VNet::Reply);
}

TEST(MessageHelpers, FlitsFollowMessageType) {
  // Data messages carry a 64B line plus header (5 flits); the rest are
  // 1-flit control messages.
  const std::pair<MsgType, int> expected[] = {
      {MsgType::GetS, 1},      {MsgType::GetX, 1},    {MsgType::WbData, 5},
      {MsgType::Inv, 1},       {MsgType::FwdGetS, 1}, {MsgType::FwdGetX, 1},
      {MsgType::MemRead, 1},   {MsgType::MemWb, 5},   {MsgType::L2Reply, 5},
      {MsgType::L1DataAck, 1}, {MsgType::L2WbAck, 1}, {MsgType::L1InvAck, 1},
      {MsgType::MemData, 5},   {MsgType::MemAck, 1},  {MsgType::L1ToL1, 5},
  };
  ASSERT_EQ(std::size(expected), static_cast<std::size_t>(kNumMsgTypes));
  for (int i = 0; i < kNumMsgTypes; ++i) {
    const auto [t, flits] = expected[i];
    ASSERT_EQ(static_cast<int>(t), i) << "table out of enum order";
    EXPECT_EQ(flits_of(t), flits) << to_string(t);
  }
}

TEST(MessageHelpers, CircuitEligibilityMatchesPaper) {
  // §4.1: circuits for L2_Replies, replacement acks and MEMORY replies.
  EXPECT_TRUE(reply_circuit_eligible(MsgType::L2Reply));
  EXPECT_TRUE(reply_circuit_eligible(MsgType::L2WbAck));
  EXPECT_TRUE(reply_circuit_eligible(MsgType::MemData));
  EXPECT_TRUE(reply_circuit_eligible(MsgType::MemAck));
  EXPECT_FALSE(reply_circuit_eligible(MsgType::L1DataAck));
  EXPECT_FALSE(reply_circuit_eligible(MsgType::L1InvAck));
  EXPECT_FALSE(reply_circuit_eligible(MsgType::L1ToL1));
  // ...built by the requests that trigger them.
  EXPECT_TRUE(request_builds_circuit(MsgType::GetS));
  EXPECT_TRUE(request_builds_circuit(MsgType::GetX));
  EXPECT_TRUE(request_builds_circuit(MsgType::WbData));
  EXPECT_TRUE(request_builds_circuit(MsgType::MemRead));
  EXPECT_TRUE(request_builds_circuit(MsgType::MemWb));
  EXPECT_FALSE(request_builds_circuit(MsgType::Inv));
  EXPECT_FALSE(request_builds_circuit(MsgType::FwdGetS));
  EXPECT_FALSE(request_builds_circuit(MsgType::FwdGetX));
}

TEST(Presets, NamesResolveAndDiffer) {
  for (const auto& name : preset_names()) {
    CircuitConfig c = circuit_preset(name);
    if (name == "Baseline") {
      EXPECT_FALSE(c.uses_circuits());
    } else {
      EXPECT_TRUE(c.uses_circuits()) << name;
    }
  }
  EXPECT_EQ(circuit_preset("Slack2_NoAck").slack_per_hop, 2);
  EXPECT_EQ(circuit_preset("Postponed1_NoAck").timed, TimedMode::Postponed);
  EXPECT_TRUE(circuit_preset("Ideal").no_ack);
  EXPECT_LT(circuit_preset("Ideal").circuits_per_input, 0);
}

TEST(Presets, DeeperPipelineSlowsRequests) {
  SystemConfig cfg = make_system_config(16, "Baseline", "fft", 3);
  cfg.noc.router_stages = 6;
  EXPECT_EQ(cfg.validate(), "");
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 4'000;
  RunResult deep = run_config(cfg, "deep");
  RunResult normal = run_one(16, "Baseline", "fft", 3, 1'000, 4'000);
  const auto* ld = deep.net.find_acc("lat_net_req");
  const auto* ln = normal.net.find_acc("lat_net_req");
  ASSERT_NE(ld, nullptr);
  ASSERT_NE(ln, nullptr);
  EXPECT_GT(ld->mean(), ln->mean() + 3.0);  // ~2 extra cycles per hop
}

}  // namespace
}  // namespace rc
