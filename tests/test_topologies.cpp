// Property tests for the table-driven topology layer (mesh, torus, ring,
// concentrated mesh): connectivity-map invertibility, hops() symmetry and
// the suffix property the timed-reservation arithmetic rests on, exact
// reply retrace on every fabric, MC placement policies, the widened
// SharerSet directory vector, and RC_CHECK smoke runs of whole systems on
// the non-mesh fabrics.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "circuits/circuit_manager.hpp"
#include "coherence/sharer_set.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "sim/validator.hpp"

using namespace rc;

namespace {

/// The fabric zoo every property below runs over: all four kinds, square
/// and rectangular dimensions, every MC placement policy.
std::vector<Topology> fabrics() {
  std::vector<Topology> v;
  v.emplace_back(4, 4, TopologyKind::Mesh, McPlacement::EdgeMiddle);
  v.emplace_back(5, 3, TopologyKind::Mesh, McPlacement::Corner);
  v.emplace_back(4, 4, TopologyKind::Torus, McPlacement::Corner);
  v.emplace_back(3, 5, TopologyKind::Torus, McPlacement::Diagonal);
  v.emplace_back(2, 2, TopologyKind::Torus, McPlacement::EdgeMiddle);
  v.emplace_back(8, 1, TopologyKind::Ring, McPlacement::EdgeMiddle);
  v.emplace_back(4, 2, TopologyKind::Ring, McPlacement::Diagonal);
  v.emplace_back(4, 4, TopologyKind::CMesh, McPlacement::EdgeMiddle);
  v.emplace_back(6, 4, TopologyKind::CMesh, McPlacement::Corner);
  return v;
}

std::string label(const Topology& t) {
  return std::string(to_string(t.kind())) + " " + std::to_string(t.width()) +
         "x" + std::to_string(t.height());
}

std::vector<NodeId> walk(const Topology& t, NodeId src, NodeId dest,
                         bool reverse) {
  std::vector<NodeId> path{src};
  NodeId cur = src;
  int guard = 0;
  const int limit = 4 * (t.width() + t.height()) + 8;
  while (cur != dest) {
    Dir d = t.route(cur, dest, reverse);
    EXPECT_NE(d, Dir::Local) << label(t) << " stuck at " << cur;
    if (d == Dir::Local) break;
    cur = t.neighbour(cur, d);
    EXPECT_NE(cur, kInvalidNode) << label(t) << " routed off the fabric";
    if (cur == kInvalidNode) break;
    path.push_back(cur);
    if (++guard > limit) {
      ADD_FAILURE() << label(t) << " route " << src << "->" << dest
                    << " does not terminate";
      break;
    }
  }
  return path;
}

// ------------------------------------------------------------ connectivity

// Every wired port pair is bidirectional and the reverse-port query is its
// own inverse: following a link and coming back through reverse_dir lands
// on the starting (node, port).
TEST(Connectivity, PortPairsBidirectionalAndInvertible) {
  for (const Topology& t : fabrics()) {
    SCOPED_TRACE(label(t));
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
        if (!t.connected(n, d)) continue;
        const NodeId b = t.neighbour(n, d);
        const Dir rd = t.reverse_dir(n, d);
        ASSERT_TRUE(t.connected(b, rd));
        EXPECT_EQ(t.neighbour(b, rd), n);
        EXPECT_EQ(t.reverse_dir(b, rd), d);
      }
    }
  }
}

TEST(Connectivity, PerKindPortShape) {
  Topology torus(4, 4, TopologyKind::Torus, McPlacement::EdgeMiddle);
  for (NodeId n = 0; n < torus.num_nodes(); ++n)
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West})
      EXPECT_TRUE(torus.connected(n, d)) << "torus node " << n;
  Topology ring(8, 1, TopologyKind::Ring, McPlacement::EdgeMiddle);
  for (NodeId n = 0; n < ring.num_nodes(); ++n) {
    EXPECT_TRUE(ring.connected(n, Dir::East));
    EXPECT_TRUE(ring.connected(n, Dir::West));
    EXPECT_FALSE(ring.connected(n, Dir::North));
    EXPECT_FALSE(ring.connected(n, Dir::South));
  }
  // Torus wraparound: East off the last column lands on column 0.
  EXPECT_EQ(torus.neighbour(torus.node_at({3, 1}), Dir::East),
            torus.node_at({0, 1}));
  EXPECT_EQ(ring.neighbour(7, Dir::East), 0);
}

// On a 2-wide torus dimension both directions reach the same neighbour over
// two *distinct* parallel links; the reverse-port tables must keep them
// apart (East's reverse is West, never East).
TEST(Connectivity, TwoWideTorusHasParallelLinks) {
  Topology t(2, 2, TopologyKind::Torus, McPlacement::EdgeMiddle);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(t.neighbour(n, Dir::East), t.neighbour(n, Dir::West));
    EXPECT_EQ(t.reverse_dir(n, Dir::East), Dir::West);
    EXPECT_EQ(t.reverse_dir(n, Dir::West), Dir::East);
    EXPECT_EQ(t.reverse_dir(n, Dir::North), Dir::South);
    EXPECT_EQ(t.reverse_dir(n, Dir::South), Dir::North);
  }
}

// --------------------------------------------------------------- distances

// hops() matches the walked route length and has the suffix property (each
// step toward the destination reduces it by exactly one) — the property the
// §4.7 slot arithmetic assumes at every router. On the minimal-DOR fabrics
// (mesh/torus/ring) it is also symmetric; cmesh is deliberately excluded
// from the symmetry check: its fixed exit members make path lengths
// direction-dependent, which is fine because the reply *retraces* the
// request (same links, same length) rather than routing independently.
TEST(Distances, SymmetryAndSuffixProperty) {
  for (const Topology& t : fabrics()) {
    SCOPED_TRACE(label(t));
    for (NodeId a = 0; a < t.num_nodes(); ++a) {
      for (NodeId b = 0; b < t.num_nodes(); ++b) {
        if (t.kind() != TopologyKind::CMesh) {
          ASSERT_EQ(t.hops(a, b), t.hops(b, a))
              << "asymmetric hops " << a << "<->" << b;
        }
        if (a == b) {
          EXPECT_EQ(t.hops(a, b), 0);
          continue;
        }
        auto path = walk(t, a, b, /*reverse=*/false);
        ASSERT_EQ(static_cast<int>(path.size()) - 1, t.hops(a, b))
            << "route length mismatch " << a << "->" << b;
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
          ASSERT_EQ(t.hops(path[i], b),
                    static_cast<int>(path.size() - 1 - i))
              << "suffix property broken at step " << i << " of " << a
              << "->" << b;
      }
    }
  }
}

TEST(Distances, TorusWraparound) {
  Topology t(8, 8, TopologyKind::Torus, McPlacement::EdgeMiddle);
  EXPECT_EQ(t.hops(0, 7), 1);    // (0,0) -> (7,0): one wrap link
  EXPECT_EQ(t.hops(0, 56), 1);   // (0,0) -> (0,7)
  EXPECT_EQ(t.hops(0, 63), 2);   // corner to corner wraps both dims
  EXPECT_EQ(t.hops(0, 4), 4);    // half-way: both directions minimal
  EXPECT_EQ(t.hops(0, 36), 8);   // (0,0) -> (4,4)
  Topology r(16, 1, TopologyKind::Ring, McPlacement::EdgeMiddle);
  EXPECT_EQ(r.hops(0, 15), 1);
  EXPECT_EQ(r.hops(0, 8), 8);
  EXPECT_EQ(r.hops(2, 13), 5);
}

// ----------------------------------------------------------------- retrace

// §4.1 on every fabric: the reply path (reverse=true) visits exactly the
// request's routers in reverse order — including on wraparound ties and
// through cmesh quad channels.
TEST(Retrace, ReplyRetracesRequestOnEveryFabric) {
  for (const Topology& t : fabrics()) {
    SCOPED_TRACE(label(t));
    for (NodeId s = 0; s < t.num_nodes(); ++s) {
      for (NodeId d = 0; d < t.num_nodes(); ++d) {
        if (s == d) continue;
        auto req = walk(t, s, d, /*reverse=*/false);
        auto rep = walk(t, d, s, /*reverse=*/true);
        std::vector<NodeId> rev(rep.rbegin(), rep.rend());
        ASSERT_EQ(req, rev) << "src=" << s << " dest=" << d;
      }
    }
  }
}

// Mesh routing through the table-driven layer is plain XY/YX DOR — the
// byte-identity contract with the pre-topology code.
TEST(Retrace, MeshRouteMatchesFreeDor) {
  Topology t(8, 8, TopologyKind::Mesh, McPlacement::EdgeMiddle);
  for (NodeId a = 0; a < t.num_nodes(); ++a)
    for (NodeId b = 0; b < t.num_nodes(); ++b)
      for (bool yx : {false, true})
        ASSERT_EQ(t.route(a, b, yx),
                  route_dor(t.coord_of(a), t.coord_of(b), yx));
}

// ------------------------------------------------------------ MC placement

TEST(McPlacement, FourUniqueControllersPerPolicy) {
  for (const Topology& t : fabrics()) {
    SCOPED_TRACE(label(t));
    const auto& mcs = t.memory_controller_nodes();
    std::set<NodeId> unique(mcs.begin(), mcs.end());
    EXPECT_EQ(unique.size(), mcs.size()) << "duplicate controllers";
    EXPECT_GE(mcs.size(), 1u);
    EXPECT_LE(mcs.size(), 4u);
    for (NodeId m : mcs) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, t.num_nodes());
    }
  }
  // Policies actually differ on a fabric big enough to separate them.
  Topology em(8, 8, TopologyKind::Mesh, McPlacement::EdgeMiddle);
  Topology co(8, 8, TopologyKind::Mesh, McPlacement::Corner);
  Topology di(8, 8, TopologyKind::Mesh, McPlacement::Diagonal);
  EXPECT_EQ(co.memory_controller_nodes(),
            (std::vector<NodeId>{0, 7, 56, 63}));
  EXPECT_NE(em.memory_controller_nodes(), co.memory_controller_nodes());
  EXPECT_NE(em.memory_controller_nodes(), di.memory_controller_nodes());
  for (NodeId m : di.memory_controller_nodes()) {
    Coord c = di.coord_of(m);
    EXPECT_EQ(c.x, c.y);  // diagonal picks sit on the main diagonal
  }
}

// ------------------------------------------------------- timed reservation

// A planted wraparound-timing error is caught by the timed-reservation slot
// check. On an 8x8 torus nodes 0 and 7 are one wrap link apart; the mesh
// (Manhattan) formula says seven. A reservation whose slot was computed
// with one distance while the reply transits the other misses its window:
// either the entry has expired before the reply head arrives (match()
// returns nothing, the reply falls back to packet switching) or the head
// shows up outside the reserved slot (the §4.7 containment test fails).
// With the topology-consulted distance the head hits the slot exactly.
TEST(TimedReservation, PlantedWraparoundErrorIsCaught) {
  Topology topo(8, 8, TopologyKind::Torus, McPlacement::EdgeMiddle);
  const NodeId requestor = 0, replier = 7;
  const int wrap = topo.hops(requestor, replier);
  ASSERT_EQ(wrap, 1);
  const int manhattan = 7;  // the mesh formula, blind to the wrap link

  NocConfig noc;
  LatencyModel lat(noc);
  const CircuitConfig cc = circuit_preset("Timed_NoAck");  // TimedMode::Exact
  ASSERT_TRUE(cc.is_timed());

  const Cycle injected = 100;
  const int service = 10;   // estimated cache service at the replier
  const int reply_flits = 5;
  // Reply-injection time at the replier, then arrival of the reply head at
  // the reserving router after `links_back` reply links (§4.7 arithmetic,
  // as in Router::maybe_build_circuit).
  const Cycle tau = injected + lat.request_total(wrap) + service +
                    lat.ni_turnaround();
  auto head_arrival = [&](int links_back) {
    return tau + static_cast<Cycle>(lat.reply_transit(links_back));
  };

  auto reserve = [&](int predicted_links) {
    ReserveRequest r;
    r.src = replier;
    r.dest = requestor;
    r.addr = 64 * 42;
    r.in_port = port_of(Dir::West);  // the wrap link the request departs on
    r.out_port = port_of(Dir::Local);
    r.slot_start = head_arrival(predicted_links);
    r.slot_end = r.slot_start + reply_flits - 1;
    r.owner_req = 9001;
    return r;
  };

  // Correct: predicted with the torus distance, reply transits the wrap
  // link — the head arrives exactly at slot_start.
  {
    StatSet stats;
    CircuitManager cm(cc, &stats);
    ASSERT_TRUE(cm.try_reserve(injected + 3, reserve(wrap), false).ok);
    const Cycle now = head_arrival(wrap);
    CircuitEntry* e = cm.match(port_of(Dir::West), requestor, 64 * 42,
                               /*msg_id=*/77, /*bind_new=*/true, now);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->slot_start, now);
    EXPECT_TRUE(e->overlaps(now, now + reply_flits - 1));
  }
  // Planted error A: slot predicted from the wrap distance but the reply
  // transits the long (Manhattan) path — the slot has expired long before
  // the head arrives, so the reservation cannot be (mis)used.
  {
    StatSet stats;
    CircuitManager cm(cc, &stats);
    ASSERT_TRUE(cm.try_reserve(injected + 3, reserve(wrap), false).ok);
    const Cycle now = head_arrival(manhattan);
    EXPECT_EQ(cm.match(port_of(Dir::West), requestor, 64 * 42, 77, true, now),
              nullptr);
  }
  // Planted error B: slot predicted with the Manhattan formula while the
  // fabric delivers over the wrap link — the head arrives well before the
  // reserved window opens, which the slot containment test flags.
  {
    StatSet stats;
    CircuitManager cm(cc, &stats);
    ASSERT_TRUE(cm.try_reserve(injected + 3, reserve(manhattan), false).ok);
    const Cycle now = head_arrival(wrap);
    CircuitEntry* e = cm.match(port_of(Dir::West), requestor, 64 * 42,
                               /*msg_id=*/77, /*bind_new=*/true, now);
    ASSERT_NE(e, nullptr);  // live (not yet expired) ...
    // ... but the head is outside the reserved window: containment fails.
    EXPECT_FALSE(e->overlaps(now, now + reply_flits - 1));
  }
}

// -------------------------------------------------------------- validation

TEST(Validation, TopologyRules) {
  auto cfg = [](TopologyKind k, int w, int h) {
    SystemConfig c = make_system_config(16, "Baseline", "fft");
    c.noc.topology = k;
    c.noc.mesh_w = w;
    c.noc.mesh_h = h;
    return c;
  };
  EXPECT_NE(cfg(TopologyKind::Mesh, 0, 4).validate(), "");
  EXPECT_NE(cfg(TopologyKind::Mesh, 4, -2).validate(), "");
  EXPECT_EQ(cfg(TopologyKind::Mesh, 1, 8).validate(), "");  // 1xN is legal
  EXPECT_NE(cfg(TopologyKind::Torus, 1, 4).validate(), "");
  EXPECT_EQ(cfg(TopologyKind::Torus, 4, 4).validate(), "");
  EXPECT_NE(cfg(TopologyKind::CMesh, 3, 4).validate(), "");
  EXPECT_EQ(cfg(TopologyKind::CMesh, 4, 4).validate(), "");
  EXPECT_NE(cfg(TopologyKind::Ring, 1, 1).validate(), "");
  EXPECT_EQ(cfg(TopologyKind::Ring, 8, 1).validate(), "");
  // Partitioned operation (§5.5) stays mesh-only.
  SystemConfig part = cfg(TopologyKind::Torus, 4, 4);
  part.partition_side = 2;
  EXPECT_NE(part.validate(), "");
  part.noc.topology = TopologyKind::Mesh;
  EXPECT_EQ(part.validate(), "");
}

TEST(Validation, StringRoundTrips) {
  for (TopologyKind k : {TopologyKind::Mesh, TopologyKind::Torus,
                         TopologyKind::Ring, TopologyKind::CMesh}) {
    TopologyKind out;
    ASSERT_TRUE(topology_from_string(to_string(k), &out));
    EXPECT_EQ(out, k);
  }
  TopologyKind tk;
  EXPECT_FALSE(topology_from_string("hypercube", &tk));
  for (McPlacement p : {McPlacement::EdgeMiddle, McPlacement::Corner,
                        McPlacement::Diagonal}) {
    McPlacement out;
    ASSERT_TRUE(mc_placement_from_string(to_string(p), &out));
    EXPECT_EQ(out, p);
  }
  McPlacement mp;
  EXPECT_FALSE(mc_placement_from_string("center", &mp));
}

TEST(Validation, LargePresetsValidate) {
  for (int cores : {256, 1024}) {
    SystemConfig cfg = make_system_config(cores, "SlackDelay1_NoAck", "fft");
    EXPECT_EQ(cfg.validate(), "") << cores;
    Topology t(cfg.noc);
    EXPECT_EQ(t.num_nodes(), cores);
    std::set<NodeId> mcs(t.memory_controller_nodes().begin(),
                         t.memory_controller_nodes().end());
    EXPECT_EQ(mcs.size(), 4u) << cores;
  }
  Topology big(32, 32, TopologyKind::Mesh, McPlacement::EdgeMiddle);
  EXPECT_EQ(big.hops(0, big.num_nodes() - 1), 62);
}

// --------------------------------------------------------------- SharerSet

TEST(SharerSetTest, TracksNodesPastSixtyFour) {
  SharerSet s;
  EXPECT_TRUE(s.none());
  EXPECT_FALSE(s.any());
  for (NodeId n : {3, 63, 64, 130, 1023}) {
    s.add(n);
    EXPECT_TRUE(s.test(n));
  }
  EXPECT_FALSE(s.test(65));
  EXPECT_TRUE(s.any());
  std::vector<NodeId> seen;
  s.for_each([&](NodeId n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<NodeId>{3, 63, 64, 130, 1023}));  // ascending
  s.remove(64);
  EXPECT_FALSE(s.test(64));
  s.remove(999);  // absent member: no-op
  EXPECT_TRUE(s.test(1023));
}

TEST(SharerSetTest, AnyBesidesAndAssignOnly) {
  SharerSet s;
  s.add(70);
  EXPECT_FALSE(s.any_besides(70));
  EXPECT_TRUE(s.any_besides(5));
  s.add(5);
  EXPECT_TRUE(s.any_besides(70));
  s.assign_only(200);
  EXPECT_TRUE(s.test(200));
  EXPECT_FALSE(s.test(5));
  EXPECT_FALSE(s.test(70));
  EXPECT_FALSE(s.any_besides(200));
  s.clear();
  EXPECT_TRUE(s.none());
}

std::vector<NodeId> members(const SharerSet& s) {
  std::vector<NodeId> out;
  s.for_each([&](NodeId n) { out.push_back(n); });
  return out;
}

TEST(SharerSetTest, CopyIsDeepAndMoveEmptiesTheSource) {
  SharerSet a;
  for (NodeId n : {1, 64, 200}) a.add(n);
  SharerSet b(a);
  b.add(300);
  b.remove(64);
  EXPECT_EQ(members(a), (std::vector<NodeId>{1, 64, 200}));
  EXPECT_EQ(members(b), (std::vector<NodeId>{1, 200, 300}));
  SharerSet c;
  c.add(700);
  c = a;  // copy-assign over an existing spill
  a.add(129);
  EXPECT_EQ(members(c), (std::vector<NodeId>{1, 64, 200}));
  EXPECT_EQ(c.words(), (std::vector<std::uint64_t>{2, 1, 0, 1ull << 8}));

  SharerSet d(std::move(a));
  EXPECT_EQ(members(d), (std::vector<NodeId>{1, 64, 129, 200}));
  EXPECT_TRUE(a.none());  // a moved-from set is empty
  EXPECT_EQ(a.words(), (std::vector<std::uint64_t>{0}));
  SharerSet e;
  e.add(5);
  e = std::move(d);
  EXPECT_EQ(members(e), (std::vector<NodeId>{1, 64, 129, 200}));
  a.add(66);  // a moved-from set is reusable
  EXPECT_EQ(members(a), (std::vector<NodeId>{66}));
}

TEST(SharerSetTest, SelfAssignmentKeepsMembers) {
  SharerSet s;
  for (NodeId n : {0, 63, 64, 1000}) s.add(n);
  SharerSet& alias = s;
  s = alias;
  EXPECT_EQ(members(s), (std::vector<NodeId>{0, 63, 64, 1000}));
  s = std::move(alias);
  EXPECT_EQ(members(s), (std::vector<NodeId>{0, 63, 64, 1000}));
}

TEST(SharerSetTest, ClearDropsTheSpill) {
  SharerSet s;
  s.add(3);
  s.add(500);
  s.clear();
  EXPECT_TRUE(s.none());
  EXPECT_FALSE(s.test(500));
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.words(), (std::vector<std::uint64_t>{0}));
  s.add(65);  // grows afresh: only the words up to node 65
  EXPECT_EQ(s.words(), (std::vector<std::uint64_t>{0, 2}));
}

TEST(SharerSetTest, WordsRoundTripKeepsTrailingZeroSpill) {
  SharerSet s;
  s.add(300);
  s.remove(300);  // spill stays four words long, all zero
  EXPECT_TRUE(s.none());
  EXPECT_EQ(s.words(), (std::vector<std::uint64_t>(5, 0)));

  const std::vector<std::uint64_t> w{9, 0, 4, 0, 0};
  SharerSet t;
  t.add(900);  // replaced wholesale by set_words
  t.set_words(w);
  EXPECT_EQ(t.words(), w);
  EXPECT_EQ(members(t), (std::vector<NodeId>{0, 3, 130}));
  EXPECT_EQ(SharerSet(t).words(), w);  // copies keep the length too
  t.set_words({7});
  EXPECT_EQ(t.words(), (std::vector<std::uint64_t>{7}));
  t.set_words({});
  EXPECT_EQ(t.words(), (std::vector<std::uint64_t>{0}));
}

TEST(SharerSetTest, HighMembersSurviveCopyAndMove) {
  SharerSet s;
  for (NodeId n = 64; n < 1024; n += 97) s.add(n);
  const std::vector<NodeId> want = members(s);
  ASSERT_EQ(want.size(), 10u);
  SharerSet copy = s;
  SharerSet moved = std::move(s);
  for (const SharerSet* x : {&copy, &moved}) {
    EXPECT_EQ(members(*x), want);
    EXPECT_EQ(x->count(), 10);
    EXPECT_EQ(x->lowest_besides(64), 161);
    for (NodeId n : want) EXPECT_TRUE(x->test(n));
  }
  std::vector<SharerSet> grown(1, copy);  // vector growth moves elements
  for (int i = 0; i < 100; ++i) grown.push_back(copy);
  EXPECT_EQ(members(grown.front()), want);
  EXPECT_EQ(members(grown.back()), want);
}

// ------------------------------------------------------- whole-system runs

/// Scoped environment variable (set on entry, restore on exit).
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
  bool had_old_ = false;
};

// Short whole-system runs on every non-mesh fabric with the RC_CHECK
// invariant checker attached: circuit bookkeeping, credit conservation and
// the hang watchdog must hold on wraparound and concentrated routes too.
TEST(SystemSmoke, NonMeshFabricsRunCleanUnderCheck) {
  EnvGuard on("RC_CHECK", "1");
  EnvGuard hang("RC_HANG_CYCLES", nullptr);
  for (TopologyKind k :
       {TopologyKind::Torus, TopologyKind::Ring, TopologyKind::CMesh}) {
    for (const char* preset : {"SlackDelay1_NoAck", "Complete_NoAck"}) {
      SCOPED_TRACE(std::string(to_string(k)) + "/" + preset);
      SystemConfig cfg = make_system_config(16, preset, "fft", 3);
      cfg.noc.topology = k;
      cfg.warmup_cycles = 300;
      cfg.measure_cycles = 1'200;
      ASSERT_EQ(cfg.validate(), "");
      System sys(cfg);
      ASSERT_NE(sys.validator(), nullptr);
      EXPECT_NO_THROW(sys.run());
      EXPECT_GT(sys.total_retired(), 0u);
    }
  }
}

}  // namespace
