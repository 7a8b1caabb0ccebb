#include "common/config.hpp"

namespace rc {

const char* to_string(CircuitMode m) {
  switch (m) {
    case CircuitMode::None: return "None";
    case CircuitMode::Fragmented: return "Fragmented";
    case CircuitMode::Complete: return "Complete";
    case CircuitMode::Ideal: return "Ideal";
  }
  return "?";
}

const char* to_string(TimedMode m) {
  switch (m) {
    case TimedMode::None: return "None";
    case TimedMode::Exact: return "Exact";
    case TimedMode::Slack: return "Slack";
    case TimedMode::SlackDelay: return "SlackDelay";
    case TimedMode::Postponed: return "Postponed";
  }
  return "?";
}

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::Mesh: return "mesh";
    case TopologyKind::Torus: return "torus";
    case TopologyKind::Ring: return "ring";
    case TopologyKind::CMesh: return "cmesh";
  }
  return "?";
}

bool topology_from_string(const std::string& s, TopologyKind* out) {
  for (TopologyKind k : {TopologyKind::Mesh, TopologyKind::Torus,
                         TopologyKind::Ring, TopologyKind::CMesh}) {
    if (s == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* to_string(McPlacement p) {
  switch (p) {
    case McPlacement::EdgeMiddle: return "edge-middle";
    case McPlacement::Corner: return "corner";
    case McPlacement::Diagonal: return "diagonal";
  }
  return "?";
}

bool mc_placement_from_string(const std::string& s, McPlacement* out) {
  for (McPlacement p : {McPlacement::EdgeMiddle, McPlacement::Corner,
                        McPlacement::Diagonal}) {
    if (s == to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::FullMapMESI: return "mesi";
    case Protocol::SparseMSI: return "sparse-msi";
  }
  return "?";
}

bool protocol_from_string(const std::string& s, Protocol* out) {
  for (Protocol p : {Protocol::FullMapMESI, Protocol::SparseMSI}) {
    if (s == to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

std::string SystemConfig::validate() const {
  // Dimension checks come first: everything below (and the Topology
  // constructor itself) divides and mods by them.
  if (noc.mesh_w < 1 || noc.mesh_h < 1)
    return "mesh dimensions must be positive";
  if (noc.mesh_w > kMaxMeshSide || noc.mesh_h > kMaxMeshSide)
    return "mesh dimensions are capped at " + std::to_string(kMaxMeshSide) +
           " (up to " + std::to_string(kMaxMeshSide * kMaxMeshSide) +
           " nodes)";
  switch (noc.topology) {
    case TopologyKind::Mesh:
      break;  // degenerate 1xN meshes are legal (and dedup their MCs)
    case TopologyKind::Torus:
      if (noc.mesh_w < 2 || noc.mesh_h < 2)
        return "torus must be at least 2x2 (1-wide wrap is a self-loop)";
      break;
    case TopologyKind::Ring:
      if (noc.num_nodes() < 2) return "ring needs at least 2 nodes";
      break;
    case TopologyKind::CMesh:
      if (noc.mesh_w < 2 || noc.mesh_h < 2 || noc.mesh_w % 2 != 0 ||
          noc.mesh_h % 2 != 0)
        return "cmesh needs even dimensions, at least 2x2 (2x2 node quads)";
      break;
  }
  if (noc.vcs_request_vn < 1 || noc.vcs_reply_vn < 1)
    return "each virtual network needs at least one VC";
  if (noc.vcs_request_vn > kMaxVcsPerVn || noc.vcs_reply_vn > kMaxVcsPerVn)
    return "each virtual network has at most " + std::to_string(kMaxVcsPerVn) +
           " VCs";
  if (noc.vcs_request_vn + noc.vcs_reply_vn > kMaxVcsTotal)
    return "at most " + std::to_string(kMaxVcsTotal) +
           " VCs in total (request + reply VN)";
  if (noc.buffer_depth_flits < 1) return "buffers must hold at least 1 flit";
  if (noc.router_stages < 4)
    return "the modelled pipeline is BW/RC, VA, SA, ST: at least 4 stages "
           "(deeper pipelines add cycles between VA and SA)";

  const CircuitConfig& c = noc.circuit;
  if (c.uses_circuits()) {
    if (c.mode != CircuitMode::Ideal && c.circuits_per_input < 1)
      return "circuit modes need at least one table entry per input port";
    const int needed = c.num_circuit_vcs() + 1;  // + one non-circuit VC
    if (noc.vcs_reply_vn < needed)
      return "the reply VN needs a non-circuit VC beside the circuit VC(s)";
  } else {
    if (c.no_ack) return "NoAck requires circuits (§4.6 needs the ordering "
                         "guarantee of a complete circuit)";
    if (c.reuse) return "scrounging requires complete circuits (§4.5)";
    if (c.is_timed()) return "timed reservation requires circuits (§4.7)";
  }
  if (c.no_ack && c.mode == CircuitMode::Fragmented)
    return "NoAck is unsound with fragmented circuits: a partially-reserved "
           "reply can block, so ordering is not guaranteed (§4.6)";
  if (c.reuse && c.mode != CircuitMode::Complete)
    return "scrounging is only defined for complete circuits (§4.5)";
  if (c.reuse && c.is_timed())
    return "scrounging untimed circuits only: a scrounger cannot fit "
           "another message's time slot";
  if (c.is_timed() && c.mode != CircuitMode::Complete)
    return "timed reservation applies to complete circuits (§4.7)";
  if (c.timed == TimedMode::Slack || c.timed == TimedMode::SlackDelay ||
      c.timed == TimedMode::Postponed) {
    if (c.slack_per_hop < 1)
      return "slack/delay/postponed variants need slack_per_hop >= 1";
  }

  if (shards < 0) return "shards must be >= 0 (0 defers to RC_SHARDS)";
  if (partition_side > 0) {
    if (noc.topology != TopologyKind::Mesh)
      return "partitioned operation (§5.5) is defined on the mesh only: "
             "wraparound/concentrated routes cross partition boundaries";
    if (noc.mesh_w % partition_side != 0 || noc.mesh_h % partition_side != 0)
      return "partition side must divide both mesh dimensions";
  }
  if (cache.l1_sets < 1 || cache.l1_ways < 1 || cache.l2_sets < 1 ||
      cache.l2_ways < 1)
    return "cache geometry must be positive";
  if (protocol == Protocol::SparseMSI) {
    if (cache.dir_sets < 1 || cache.dir_ways < 1)
      return "sparse directory geometry must be positive";
    if (cache.dir_pointers < 1)
      return "sparse directory needs at least one sharer pointer per entry";
  }
  return "";
}

}  // namespace rc
