// Router-level tests through a real (small) network fabric: pipeline
// latency, wormhole behaviour, credits, arbitration fairness.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "noc/allocator.hpp"
#include "noc/network.hpp"

namespace rc {
namespace {

struct Delivery {
  NodeId node;
  MsgPtr msg;
  Cycle at;
};

struct Harness {
  explicit Harness(NocConfig cfg) : net(cfg) {
    net.set_deliver([this](NodeId n, const MsgPtr& m) {
      deliveries.push_back({n, m, clock});
    });
  }

  MsgPtr make(MsgType t, NodeId src, NodeId dest, Addr addr, int flits) {
    auto m = std::make_shared<Message>();
    m->id = ++next_id;
    m->type = t;
    m->src = src;
    m->dest = dest;
    m->addr = addr;
    m->size_flits = flits;
    return m;
  }

  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) net.tick(clock++);
  }

  /// Run until `count` deliveries or `max` cycles.
  void run_until_delivered(std::size_t count, int max = 2000) {
    for (int i = 0; i < max && deliveries.size() < count; ++i) tick();
  }

  Network net;
  Cycle clock = 0;
  std::uint64_t next_id = 100;
  std::vector<Delivery> deliveries;
};

NocConfig base_cfg(int side = 4) {
  NocConfig cfg;
  cfg.mesh_w = cfg.mesh_h = side;
  return cfg;
}

TEST(RoundRobinArbiterTest, RotatesFairly) {
  RoundRobinArbiter arb(4);
  std::uint64_t all = 0b1111;
  EXPECT_EQ(arb.grant(all), 0);
  EXPECT_EQ(arb.grant(all), 1);
  EXPECT_EQ(arb.grant(all), 2);
  EXPECT_EQ(arb.grant(all), 3);
  EXPECT_EQ(arb.grant(all), 0);
}

TEST(RoundRobinArbiterTest, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(0b0100), 2);
  EXPECT_EQ(arb.grant(0b0011), 0);  // pointer at 3, wraps to 0
  EXPECT_EQ(arb.grant(0), -1);
}

// grant() must pick exactly what a linear scan from the pointer picks, and
// leave the pointer where that scan leaves it, for every width, pointer and
// request mask (stray bits at or above the width included).
TEST(RoundRobinArbiterTest, MatchesLinearScan) {
  auto scan = [](int n, int& ptr, std::uint64_t req) {
    for (int i = 0; i < n; ++i) {
      const int idx = (ptr + i) % n;
      if (req & (std::uint64_t{1} << idx)) {
        ptr = idx + 1 == n ? 0 : idx + 1;
        return idx;
      }
    }
    return -1;
  };
  Rng rng(7);
  for (int n = 1; n <= 64; ++n) {
    for (int p = 0; p < n; ++p) {
      for (int k = 0; k < 48; ++k) {
        // Dense, sparse and single-bit masks, plus the empty one.
        std::uint64_t req = rng.next_u64();
        if (k % 3 == 1) req &= rng.next_u64() & rng.next_u64();
        if (k % 3 == 2) req = std::uint64_t{1} << rng.next_below(64);
        if (k == 0) req = 0;
        RoundRobinArbiter arb(n);
        arb.set_pointer(p);
        int ref_ptr = p;
        const int want = scan(n, ref_ptr, req);
        ASSERT_EQ(arb.grant(req), want) << "n=" << n << " ptr=" << p
                                        << " req=" << std::hex << req;
        ASSERT_EQ(arb.pointer(), ref_ptr) << "n=" << n << " ptr=" << p;
      }
    }
  }
}

TEST(RouterPipeline, SingleFlitFiveCyclesPerHop) {
  // Uncontended 1-flit request over H links: request_total(H) = 7 + 5H.
  for (int hops = 1; hops <= 3; ++hops) {
    Harness h(base_cfg());
    auto m = h.make(MsgType::GetS, 0, hops, 0x40, 1);  // 0 -> east
    h.net.send(m, h.clock);
    h.run_until_delivered(1);
    ASSERT_EQ(h.deliveries.size(), 1u) << hops;
    EXPECT_EQ(m->delivered - m->injected, Cycle(7 + 5 * hops)) << hops;
    EXPECT_EQ(m->injected, 0u);
  }
}

TEST(RouterPipeline, FiveFlitWormholeTailLatency) {
  Harness h(base_cfg());
  auto m = h.make(MsgType::WbData, 0, 2, 0x40, 5);
  h.net.send(m, h.clock);
  h.run_until_delivered(1);
  ASSERT_EQ(h.deliveries.size(), 1u);
  // Head pipeline latency + 4 extra cycles for the body flits.
  EXPECT_EQ(m->delivered - m->injected, Cycle(7 + 5 * 2 + 4));
}

TEST(RouterPipeline, TurningPathSameLatency) {
  Harness h(base_cfg());
  auto m = h.make(MsgType::GetS, 0, 10, 0x40, 1);  // (0,0)->(2,2): 4 links
  h.net.send(m, h.clock);
  h.run_until_delivered(1);
  EXPECT_EQ(m->delivered - m->injected, Cycle(7 + 5 * 4));
}

TEST(RouterPipeline, IndependentMessagesDontInterfere) {
  Harness h(base_cfg());
  auto a = h.make(MsgType::GetS, 0, 3, 0x40, 1);
  auto b = h.make(MsgType::GetS, 12, 15, 0x80, 1);
  h.net.send(a, h.clock);
  h.net.send(b, h.clock);
  h.run_until_delivered(2);
  EXPECT_EQ(a->delivered - a->injected, Cycle(7 + 5 * 3));
  EXPECT_EQ(b->delivered - b->injected, Cycle(7 + 5 * 3));
}

TEST(RouterPipeline, BackToBackSameVcSerializes) {
  // Two 5-flit messages, same source and destination: the second must wait
  // for buffers/VCs but both arrive intact and in order.
  Harness h(base_cfg());
  auto a = h.make(MsgType::WbData, 0, 1, 0x40, 5);
  auto b = h.make(MsgType::WbData, 0, 1, 0x80, 5);
  h.net.send(a, h.clock);
  h.net.send(b, h.clock);
  h.run_until_delivered(2);
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].msg->addr, 0x40u);
  EXPECT_EQ(h.deliveries[1].msg->addr, 0x80u);
  EXPECT_GT(b->delivered, a->delivered);
}

TEST(RouterPipeline, ManyToOneAllDelivered) {
  // Hotspot: every node sends to node 5. All messages arrive exactly once.
  Harness h(base_cfg());
  int sent = 0;
  for (NodeId n = 0; n < 16; ++n) {
    if (n == 5) continue;
    h.net.send(h.make(MsgType::GetS, n, 5, 0x40 * (n + 1), 1), h.clock);
    ++sent;
  }
  h.run_until_delivered(sent, 5000);
  EXPECT_EQ(h.deliveries.size(), static_cast<std::size_t>(sent));
  std::map<Addr, int> seen;
  for (auto& d : h.deliveries) {
    EXPECT_EQ(d.node, 5);
    seen[d.msg->addr]++;
  }
  for (auto& [a, c] : seen) EXPECT_EQ(c, 1) << std::hex << a;
}

TEST(RouterPipeline, HeavyRandomTrafficConservesMessages) {
  Harness h(base_cfg());
  Rng rng(99);
  int sent = 0;
  for (int wave = 0; wave < 40; ++wave) {
    for (int k = 0; k < 4; ++k) {
      NodeId s = static_cast<NodeId>(rng.next_below(16));
      NodeId d = static_cast<NodeId>(rng.next_below(16));
      if (s == d) continue;
      bool reply = rng.chance(0.5);
      h.net.send(h.make(reply ? MsgType::L1DataAck : MsgType::GetS, s, d,
                        0x40 * (sent + 1), rng.chance(0.3) ? 5 : 1),
                 h.clock);
      ++sent;
    }
    h.tick(3);
  }
  h.run_until_delivered(sent, 20000);
  EXPECT_EQ(h.deliveries.size(), static_cast<std::size_t>(sent));
}

TEST(RouterPipeline, QueueingLatencyAccounted) {
  Harness h(base_cfg());
  // Saturate one source so later messages wait at the NI.
  std::vector<MsgPtr> msgs;
  for (int i = 0; i < 6; ++i) {
    auto m = h.make(MsgType::WbData, 0, 1, 0x40 * (i + 1), 5);
    msgs.push_back(m);
    h.net.send(m, h.clock);
  }
  h.run_until_delivered(6, 5000);
  EXPECT_GT(msgs.back()->injected, msgs.back()->created);
}

TEST(RouterPipeline, LocalMessagesBypassNetwork) {
  Harness h(base_cfg());
  auto m = h.make(MsgType::GetS, 3, 3, 0x40, 1);
  h.net.send(m, h.clock);
  h.run_until_delivered(1, 10);
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].node, 3);
  EXPECT_EQ(h.net.merged_stats().counter_value("msg_local"), 1u);
  // No flits ever entered the fabric.
  EXPECT_EQ(h.net.merged_stats().counter_value("ni_inject_flit"), 0u);
}

TEST(RouterPipeline, RepliesUseReplyVnStats) {
  Harness h(base_cfg());
  auto m = h.make(MsgType::L1DataAck, 0, 5, 0x40, 1);
  h.net.send(m, h.clock);
  h.run_until_delivered(1);
  EXPECT_EQ(h.net.merged_stats().counter_value("msg_L1DataAck"), 1u);
  EXPECT_EQ(h.net.merged_stats().counter_value("reply_not_eligible"), 1u);
}

TEST(RouterPipeline, EnergyCountersTrackActivity) {
  Harness h(base_cfg());
  auto m = h.make(MsgType::GetS, 0, 3, 0x40, 1);
  h.net.send(m, h.clock);
  h.run_until_delivered(1);
  auto s = h.net.merged_stats();
  // 1 flit through 4 routers: one buffer write/read + one xbar per router.
  EXPECT_EQ(s.counter_value("buf_write"), 4u);
  EXPECT_EQ(s.counter_value("buf_read"), 4u);
  EXPECT_EQ(s.counter_value("xbar"), 4u);
  EXPECT_EQ(s.counter_value("link_flit"), 3u);
  EXPECT_EQ(s.counter_value("va_ops"), 4u);
  EXPECT_EQ(s.counter_value("sa_ops"), 4u);
}

}  // namespace
}  // namespace rc
