// Area and energy model tests: the Table-6 calibration targets and the
// qualitative orderings the paper reports.
#include <gtest/gtest.h>

#include "power/area_model.hpp"
#include "power/energy_model.hpp"
#include "sim/presets.hpp"

namespace rc {
namespace {

NocConfig noc_for(const std::string& preset, int cores) {
  return make_system_config(cores, preset, "fft").noc;
}

TEST(AreaModel, BaselineBreakdownIsBufferAndXbarHeavy) {
  RouterArea a = AreaModel::router(noc_for("Baseline", 16));
  EXPECT_GT(a.buffers / a.total(), 0.4);
  EXPECT_GT(a.crossbar / a.total(), 0.2);
  EXPECT_EQ(a.circuit_store, 0.0);
  EXPECT_EQ(a.circuit_logic, 0.0);
}

TEST(AreaModel, Table6FragmentedGrowsRouter) {
  // Paper: -19.28% (16c) / -18.96% (64c): extra buffered VC + circuit
  // storage. Accept the right sign and magnitude band.
  double s16 = AreaModel::savings_vs_baseline(noc_for("Fragmented", 16));
  double s64 = AreaModel::savings_vs_baseline(noc_for("Fragmented", 64));
  EXPECT_LT(s16, -0.14);
  EXPECT_GT(s16, -0.27);
  EXPECT_LT(s64, -0.14);
  EXPECT_GT(s64, -0.27);
}

TEST(AreaModel, Table6CompleteShrinksRouter) {
  // Paper: +6.21% (16c) / +5.77% (64c).
  double s16 = AreaModel::savings_vs_baseline(noc_for("Complete", 16));
  double s64 = AreaModel::savings_vs_baseline(noc_for("Complete", 64));
  EXPECT_GT(s16, 0.04);
  EXPECT_LT(s16, 0.09);
  EXPECT_GT(s64, 0.03);
  EXPECT_LT(s64, 0.09);
  // Wider node/address fields make 64-core savings smaller.
  EXPECT_LT(s64, s16);
}

TEST(AreaModel, Table6TimedEatsIntoSavings) {
  // Paper: +3.38% (16c) / +1.09% (64c): timestamps shrink the benefit but
  // keep it positive.
  for (int cores : {16, 64}) {
    double timed =
        AreaModel::savings_vs_baseline(noc_for("SlackDelay1_NoAck", cores));
    double untimed = AreaModel::savings_vs_baseline(noc_for("Complete", cores));
    EXPECT_GT(timed, 0.0) << cores;
    EXPECT_LT(timed, untimed) << cores;
  }
}

TEST(AreaModel, EntryBitsScaleWithMeshAndTiming) {
  NocConfig c16 = noc_for("Complete", 16);
  NocConfig c64 = noc_for("Complete", 64);
  EXPECT_GT(AreaModel::circuit_entry_bits(c64),
            AreaModel::circuit_entry_bits(c16));
  NocConfig t16 = noc_for("Slack1_NoAck", 16);
  EXPECT_GT(AreaModel::circuit_entry_bits(t16),
            AreaModel::circuit_entry_bits(c16));
  EXPECT_EQ(AreaModel::circuit_entry_bits(t16) -
                AreaModel::circuit_entry_bits(c16),
            2 * AreaModel::slot_counter_bits(t16));
}

TEST(AreaModel, NoAckAndReuseDontChangeArea) {
  // Those are protocol/NI-level features; router area must be identical to
  // plain Complete.
  EXPECT_DOUBLE_EQ(AreaModel::router(noc_for("Complete", 16)).total(),
                   AreaModel::router(noc_for("Complete_NoAck", 16)).total());
  EXPECT_DOUBLE_EQ(AreaModel::router(noc_for("Complete", 16)).total(),
                   AreaModel::router(noc_for("Reuse_NoAck", 16)).total());
}

TEST(EnergyModel, StaticScalesWithAreaAndTime) {
  NocConfig cfg = noc_for("Baseline", 16);
  StatSet empty;
  auto e1 = EnergyModel::network_energy(cfg, empty, 1000);
  auto e2 = EnergyModel::network_energy(cfg, empty, 2000);
  EXPECT_DOUBLE_EQ(e2.router_static, 2 * e1.router_static);
  EXPECT_DOUBLE_EQ(e2.link_static, 2 * e1.link_static);
  EXPECT_EQ(e1.dynamic(), 0.0);
}

TEST(EnergyModel, DynamicTracksCounters) {
  NocConfig cfg = noc_for("Baseline", 16);
  StatSet s;
  s.at(Ctr::buf_write) = 100;
  s.at(Ctr::buf_read) = 100;
  s.at(Ctr::xbar) = 100;
  s.at(Ctr::link_flit) = 100;
  auto e = EnergyModel::network_energy(cfg, s, 1);
  EXPECT_GT(e.buffer, 0.0);
  EXPECT_GT(e.crossbar, 0.0);
  EXPECT_GT(e.link, 0.0);
  EXPECT_GT(e.total(), e.dynamic());
}

TEST(EnergyModel, BufferlessRouterLeaksLess) {
  NocConfig base = noc_for("Baseline", 16);
  NocConfig comp = noc_for("Complete", 16);
  StatSet empty;
  auto eb = EnergyModel::network_energy(base, empty, 10000);
  auto ec = EnergyModel::network_energy(comp, empty, 10000);
  EXPECT_LT(ec.router_static, eb.router_static);
}

TEST(EnergyModel, PerInstructionNormalisation) {
  NocConfig cfg = noc_for("Baseline", 16);
  StatSet s;
  s.at(Ctr::xbar) = 1000;
  double e1 = EnergyModel::energy_per_instruction(cfg, s, 1000, 10000);
  double e2 = EnergyModel::energy_per_instruction(cfg, s, 1000, 20000);
  EXPECT_DOUBLE_EQ(e1, 2 * e2);
  EXPECT_EQ(EnergyModel::energy_per_instruction(cfg, s, 1000, 0), 0.0);
}

}  // namespace
}  // namespace rc
