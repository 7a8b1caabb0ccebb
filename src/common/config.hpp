// Configuration records for every modelled component. Defaults reproduce the
// paper's Tables 2 (CMP) and 4 (baseline NoC).
#pragma once

#include <cstdint>
#include <string>

#include "common/schedule.hpp"
#include "common/types.hpp"

namespace rc {

/// Which circuit-reservation mechanism the reply virtual network runs.
enum class CircuitMode : std::uint8_t {
  None,        ///< baseline packet-switched NoC (Table 4)
  Fragmented,  ///< partial reservations kept; extra buffered VC (§4.2)
  Complete,    ///< all-or-nothing reservations; bufferless circuit VC (§4.2)
  Ideal,       ///< every circuit built & used; buffers kept (§4.8)
};

const char* to_string(CircuitMode m);

/// Timed-reservation flavour on top of Complete circuits (§4.7).
enum class TimedMode : std::uint8_t {
  None,        ///< untimed: a circuit holds its resources until used/undone
  Exact,       ///< reserve only the optimistically computed slot
  Slack,       ///< slot extended by slack_per_hop × path-hops
  SlackDelay,  ///< Slack + shift the slot later when it conflicts
  Postponed,   ///< exact-length slot shifted later by slack_per_hop × hops
};

const char* to_string(TimedMode m);

/// Fabric shape. All four are link structures over the same radix-5 router
/// (4 directional ports + local); the topology layer owns the connectivity
/// tables and the matching routing function (see noc/topology.hpp).
enum class TopologyKind : std::uint8_t {
  Mesh,   ///< W x H mesh, XY/YX DOR (the paper's fabric, Table 4)
  Torus,  ///< W x H torus: wraparound links, minimal-direction DOR
  Ring,   ///< bidirectional ring over all W*H nodes in row-major order
  CMesh,  ///< concentrated mesh (4:1): 2x2 quads, single inter-quad channels
};

const char* to_string(TopologyKind k);
/// Parse "mesh" / "torus" / "ring" / "cmesh"; false on an unknown name.
bool topology_from_string(const std::string& s, TopologyKind* out);

/// Placement policy for the four memory controllers.
enum class McPlacement : std::uint8_t {
  EdgeMiddle,  ///< middle of each chip edge (paper Table 2)
  Corner,      ///< the four corners
  Diagonal,    ///< spread along the main diagonal
};

const char* to_string(McPlacement p);
/// Parse "edge-middle" / "corner" / "diagonal"; false on an unknown name.
bool mc_placement_from_string(const std::string& s, McPlacement* out);

/// Coherence-protocol variant the home L2 banks run (src/coherence).
enum class Protocol : std::uint8_t {
  FullMapMESI,  ///< in-cache full-map directory, E grants (the paper's MESI)
  SparseMSI,    ///< separate sparse directory, limited pointers, no E state
};

const char* to_string(Protocol p);
/// Parse "mesi" / "sparse-msi"; false on an unknown name.
bool protocol_from_string(const std::string& s, Protocol* out);

/// Default per-VC buffer depth (Table 4: "5-flit buffers, enough for a
/// whole data message"). Named so the inline flit-ring capacity in
/// noc/virtual_channel.hpp can be static-assert-checked against it.
inline constexpr int kDefaultBufferDepthFlits = 5;

/// Full description of one Reactive Circuits variant (one bar in Figs 6-9).
struct CircuitConfig {
  CircuitMode mode = CircuitMode::None;
  TimedMode timed = TimedMode::None;

  /// Max simultaneous circuits per router input port. Paper: 2 for
  /// fragmented, 5 for complete ("experimentally explored", §4.2).
  int circuits_per_input = 0;

  /// Eliminate L1_DATA_ACK messages for replies that ride a complete
  /// circuit (§4.6). Requires mode == Complete (or Ideal).
  bool no_ack = false;

  /// Let circuit-less replies scrounge someone else's complete circuit
  /// (§4.5). Requires mode == Complete.
  bool reuse = false;

  /// Cycles of slack / postponement per path hop for the timed variants.
  int slack_per_hop = 0;

  /// §4.4: undo circuits when the L2 misses and the reply will take the
  /// long memory round-trip. The paper found keeping them built is better;
  /// kept as a knob for the ablation bench.
  bool undo_on_l2_miss = false;

  bool uses_circuits() const { return mode != CircuitMode::None; }
  bool bufferless_circuit_vc() const { return mode == CircuitMode::Complete; }
  bool is_timed() const { return timed != TimedMode::None; }

  /// Reply-VN VCs dedicated to circuits: 2 for Fragmented (one circuit per
  /// buffered circuit VC), 1 otherwise, 0 when the mechanism is off.
  int num_circuit_vcs() const {
    if (mode == CircuitMode::None) return 0;
    return mode == CircuitMode::Fragmented ? 2 : 1;
  }
};

/// Largest mesh side SystemConfig::validate accepts: up to 4096 nodes.
inline constexpr int kMaxMeshSide = 64;

/// NoC parameters (paper Table 4).
/// VC-count limits: the NI tracks outstanding flits in a fixed array of
/// kMaxVcsPerVn slots per VN, and a router's VA request masks hold one bit
/// per (input port, VC) in 64 bits.
inline constexpr int kMaxVcsPerVn = 8;
inline constexpr int kMaxVcsTotal = 64 / kNumDirs;

struct NocConfig {
  int mesh_w = 4;
  int mesh_h = 4;

  /// Fabric shape over the mesh_w x mesh_h node grid (Ring flattens it to
  /// one row-major cycle) and where the four memory controllers sit.
  TopologyKind topology = TopologyKind::Mesh;
  McPlacement mc_placement = McPlacement::EdgeMiddle;

  int vcs_request_vn = 2;        ///< VCs in the request VN
  int vcs_reply_vn = 2;          ///< VCs in the reply VN (3 for Fragmented)
  int buffer_depth_flits = kDefaultBufferDepthFlits;  ///< per-VC buffer, fits a whole data message
  int flit_bytes = 16;           ///< link width
  int link_latency = 1;          ///< cycles per link traversal
  int local_latency = 1;         ///< same-tile controller-to-controller hop

  /// Router pipeline depth for packet-switched traversal:
  /// buffer-write+routing, VC allocation, switch allocation, switch traversal.
  int router_stages = 4;

  /// Router latency for a flit riding a built circuit (circuit check + ST).
  int circuit_router_latency = 1;

  // ---- timing hints for the timed-reservation estimator (§4.7). These are
  // lower bounds of the real controller service times; presets copy them
  // from CacheConfig so estimator and simulation never drift apart.
  int ni_turnaround = 0;       ///< NI hand-off overhead beyond service time
  int est_service_cache = 7;   ///< L2 hit latency (GetS/GetX/WbData replies)
  int est_service_mem = 160;   ///< memory latency (MemRead/MemWb replies)

  /// Replies route YX so they retrace their request's XY path (§4.1).
  /// Baseline keeps plain XY for everything.
  bool replies_yx = false;

  /// Tick-loop scheduling (see common/schedule.hpp). Overridable at run time
  /// with RC_VERIFY_TICKS=1; both modes produce identical simulations —
  /// Activity just skips quiescent components.
  TickMode tick = TickMode::Activity;

  CircuitConfig circuit;

  int num_nodes() const { return mesh_w * mesh_h; }
  int vcs_in_vn(VNet vn) const {
    return vn == VNet::Request ? vcs_request_vn : vcs_reply_vn;
  }
  /// Packet-switched cycles per hop (router + link): 5 in the paper.
  int packet_hop_cycles() const { return router_stages + link_latency; }
  /// Circuit-switched cycles per hop (check+ST + link): 2 in the paper.
  int circuit_hop_cycles() const { return circuit_router_latency + link_latency; }
};

/// Cache & memory hierarchy parameters (paper Table 2).
struct CacheConfig {
  // L1: 32KB, 4-way, 64B lines, 2-cycle hit, private (per tile, unified
  // model of the paper's split I/D pair — the NoC only sees misses).
  int l1_sets = 128;
  int l1_ways = 4;
  int l1_hit_latency = 2;

  // L2: 1MB/bank, 16-way, 64B lines, 7-cycle hit, shared, inclusive.
  int l2_sets = 1024;
  int l2_ways = 16;
  int l2_hit_latency = 7;

  int memory_latency = 160;  ///< memory controller service latency
  int num_mem_ctrls = 4;     ///< distributed on the chip edges

  /// §3: the paper's MESI "allows direct data transfer between L1 caches,
  /// as opposed to a simpler version that always forced to use the L2 as
  /// an intermediary". false = the simpler version: the home bank recalls
  /// the owner's copy and supplies the data itself (no FwdGetS/X or
  /// L1_TO_L1 messages — and no circuits undone by the forward case).
  bool direct_l1_transfers = true;

  // ---- sparse directory geometry (Protocol::SparseMSI only). The default
  // is deliberately much smaller than the L2 (2K entries per bank vs 16K
  // lines) and narrower than the chip (8 pointers), so directory-entry
  // evictions and pointer-overflow recalls actually happen — those recall
  // storms are the traffic the sparse variant exists to produce.
  int dir_sets = 256;
  int dir_ways = 8;
  /// Max sharers tracked per entry before a pointer-overflow recall must
  /// invalidate an existing sharer to make room.
  int dir_pointers = 8;
};

/// Everything needed to build one System.
struct SystemConfig {
  NocConfig noc;
  CacheConfig cache;

  std::uint64_t seed = 1;
  std::string workload = "mix";  ///< app model name (see cpu/apps.hpp)

  /// Coherence protocol the L2 home banks run. FullMapMESI reproduces the
  /// paper; SparseMSI adds directory-eviction / pointer-overflow recall
  /// storms that change reply predictability (see coherence/directory.hpp).
  Protocol protocol = Protocol::FullMapMESI;

  /// §5.5 partitioned-usage extension: split the mesh into side x side
  /// partitions whose workloads, L2 homes and circuits never cross the
  /// boundary (0 = monolithic chip). Must divide both mesh dimensions.
  int partition_side = 0;

  /// Worker shards for the parallel tick engine (common/shard.hpp).
  /// 0 = defer to the RC_SHARDS environment variable (unset -> 1 = serial,
  /// "auto" -> hardware concurrency, else a positive count); > 0 = explicit,
  /// overriding the environment. Either way the effective count is clamped
  /// to [1, num_nodes]. Statistics are bit-identical for any value.
  int shards = 0;

  /// Simulated cycles of cache warm-up before stats collection begins.
  Cycle warmup_cycles = 20'000;
  /// Simulated cycles of measurement.
  Cycle measure_cycles = 100'000;

  /// Empty string when the configuration is self-consistent; otherwise a
  /// human-readable description of the first problem found.
  std::string validate() const;
};

}  // namespace rc
