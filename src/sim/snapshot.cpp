#include "sim/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "common/atomic_file.hpp"
#include "common/config.hpp"
#include "common/state.hpp"
#include "noc/message.hpp"
#include "sim/system.hpp"

namespace rc {

// ---------------------------------------------------------------------------
// Configuration digest.

ConfigDigest config_digest(const SystemConfig& cfg) {
  ConfigDigest d;
  auto num = [&d](const char* name, long long v) {
    d.emplace_back(name, std::to_string(v));
  };
  auto txt = [&d](const char* name, const std::string& v) {
    d.emplace_back(name, v);
  };
  const NocConfig& noc = cfg.noc;
  num("noc.mesh_w", noc.mesh_w);
  num("noc.mesh_h", noc.mesh_h);
  txt("noc.topology", to_string(noc.topology));
  txt("noc.mc_placement", to_string(noc.mc_placement));
  num("noc.vcs_request_vn", noc.vcs_request_vn);
  num("noc.vcs_reply_vn", noc.vcs_reply_vn);
  num("noc.buffer_depth_flits", noc.buffer_depth_flits);
  num("noc.flit_bytes", noc.flit_bytes);
  num("noc.link_latency", noc.link_latency);
  num("noc.local_latency", noc.local_latency);
  num("noc.router_stages", noc.router_stages);
  num("noc.circuit_router_latency", noc.circuit_router_latency);
  num("noc.ni_turnaround", noc.ni_turnaround);
  num("noc.est_service_cache", noc.est_service_cache);
  num("noc.est_service_mem", noc.est_service_mem);
  num("noc.replies_yx", noc.replies_yx ? 1 : 0);
  txt("noc.tick", to_string(noc.tick));
  const CircuitConfig& c = noc.circuit;
  txt("noc.circuit.mode", to_string(c.mode));
  txt("noc.circuit.timed", to_string(c.timed));
  num("noc.circuit.circuits_per_input", c.circuits_per_input);
  num("noc.circuit.no_ack", c.no_ack ? 1 : 0);
  num("noc.circuit.reuse", c.reuse ? 1 : 0);
  num("noc.circuit.slack_per_hop", c.slack_per_hop);
  num("noc.circuit.undo_on_l2_miss", c.undo_on_l2_miss ? 1 : 0);
  const CacheConfig& ca = cfg.cache;
  num("cache.l1_sets", ca.l1_sets);
  num("cache.l1_ways", ca.l1_ways);
  num("cache.l1_hit_latency", ca.l1_hit_latency);
  num("cache.l2_sets", ca.l2_sets);
  num("cache.l2_ways", ca.l2_ways);
  num("cache.l2_hit_latency", ca.l2_hit_latency);
  num("cache.memory_latency", ca.memory_latency);
  num("cache.num_mem_ctrls", ca.num_mem_ctrls);
  num("cache.direct_l1_transfers", ca.direct_l1_transfers ? 1 : 0);
  num("cache.dir_sets", ca.dir_sets);
  num("cache.dir_ways", ca.dir_ways);
  num("cache.dir_pointers", ca.dir_pointers);
  // Message sizes are fixed per type (flits_of), not configured; the digest
  // keeps both entries so snapshot bytes and warm-group hashes stay stable.
  num("sizes.control_flits", kControlFlits);
  num("sizes.data_flits", kDataFlits);
  num("seed", static_cast<long long>(cfg.seed));
  txt("workload", cfg.workload);
  txt("protocol", to_string(cfg.protocol));
  num("partition_side", cfg.partition_side);
  num("shards", cfg.shards);
  num("warmup_cycles", static_cast<long long>(cfg.warmup_cycles));
  num("measure_cycles", static_cast<long long>(cfg.measure_cycles));
  return d;
}

bool digest_field_relaxed(const std::string& name) {
  // All three are simulation-identical knobs: how long to measure, how many
  // worker threads sweep the shards, and whether quiescent components are
  // skipped. A resumed run may change any of them.
  return name == "measure_cycles" || name == "shards" || name == "noc.tick";
}

std::uint64_t warm_group_hash(const ConfigDigest& digest) {
  std::uint64_t h = kFnv1aInit;
  for (const auto& [name, value] : digest) {
    if (digest_field_relaxed(name)) continue;
    h = fnv1a(name.data(), name.size() + 1, h);  // include the NUL separator
    h = fnv1a(value.data(), value.size() + 1, h);
  }
  return h;
}

std::uint64_t warm_group_hash(const SystemConfig& cfg) {
  return warm_group_hash(config_digest(cfg));
}

std::string warm_group_name(std::uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// ---------------------------------------------------------------------------
// File envelope.

namespace {

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kChecksumBytes = 8;

std::uint64_t read_le64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

/// Magic + trailing checksum. On success fills file_bytes/checksum.
bool check_envelope(const std::string& bytes, SnapshotHeader* h,
                    std::string* err) {
  if (bytes.size() < kMagicBytes + 4 + kChecksumBytes) {
    *err = "truncated snapshot (" + std::to_string(bytes.size()) + " bytes)";
    return false;
  }
  if (bytes.compare(0, kMagicBytes, kSnapshotMagic, kMagicBytes) != 0) {
    *err = "not a snapshot file (bad magic)";
    return false;
  }
  const std::size_t body = bytes.size() - kChecksumBytes;
  const std::uint64_t stored = read_le64(bytes.data() + body);
  const std::uint64_t computed = fnv1a(bytes.data(), body);
  if (stored != computed) {
    *err = "snapshot checksum mismatch (truncated or corrupt file)";
    return false;
  }
  h->file_bytes = bytes.size();
  h->checksum = stored;
  return true;
}

/// version / cycle / node count / digest, from a reader positioned right
/// after the magic.
bool parse_header(StateReader& r, SnapshotHeader* h, std::string* err) {
  if (!r.u32(&h->version)) {
    *err = r.error();
    return false;
  }
  if (h->version != kSnapshotVersion) {
    *err = "unsupported snapshot version " + std::to_string(h->version) +
           " (this build reads version " + std::to_string(kSnapshotVersion) +
           ")";
    return false;
  }
  std::uint64_t nfields;
  if (!(r.u64(&h->cycle) && r.u32(&h->num_nodes) && r.u64(&nfields))) {
    *err = r.error();
    return false;
  }
  for (std::uint64_t i = 0; i < nfields; ++i) {
    std::string k, v;
    if (!(r.str(&k) && r.str(&v))) {
      *err = r.error();
      return false;
    }
    h->digest.emplace_back(std::move(k), std::move(v));
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Save / load / inspect.

bool save_snapshot(System& sys, const std::string& path, std::string* err) {
  StateWriter body;
  sys.save_state(body);
  // The shared-Message registry was filled by the body pass; write it as
  // the MSGS table (std::map: ascending id, deterministic). The reader
  // pre-populates its registry from this table *before* the body, so every
  // reference — MsgPtr holders and raw flit pointers alike — resolves back
  // to one object per id, reconstructing the aliasing graph exactly.
  StateWriter msgs;
  msgs.u64(body.shared().size());
  for (const auto& [id, obj] : body.shared()) {
    (void)id;
    save_message(msgs, *static_cast<const Message*>(obj.get()));
  }
  StateWriter out;
  out.raw(std::string(kSnapshotMagic, kMagicBytes));
  out.u32(kSnapshotVersion);
  out.u64(sys.now());
  out.u32(static_cast<std::uint32_t>(sys.config().noc.num_nodes()));
  const ConfigDigest digest = config_digest(sys.config());
  out.u64(digest.size());
  for (const auto& [k, v] : digest) {
    out.str(k);
    out.str(v);
  }
  out.begin_section("MSGS");
  out.raw(msgs.data());
  out.end_section();
  out.begin_section("BODY");
  out.raw(body.data());
  out.end_section();
  out.u64(fnv1a(out.data().data(), out.data().size()));
  return write_file_atomic(path, out.data(), err);
}

SnapshotStatus load_snapshot(System* sys, const std::string& path,
                             std::string* err) {
  std::string bytes;
  SnapshotHeader h;
  if (!read_file(path, &bytes, err) || !check_envelope(bytes, &h, err))
    return SnapshotStatus::Error;
  StateReader r(bytes.substr(kMagicBytes,
                             bytes.size() - kMagicBytes - kChecksumBytes));
  if (!parse_header(r, &h, err)) return SnapshotStatus::Error;

  // Strict digest comparison: every non-relaxed field must match, and the
  // first mismatch is named so the caller can report exactly what differs.
  const ConfigDigest want = config_digest(sys->config());
  std::map<std::string, std::string> got(h.digest.begin(), h.digest.end());
  std::set<std::string> known;
  for (const auto& [k, v] : want) {
    known.insert(k);
    if (digest_field_relaxed(k)) continue;
    auto it = got.find(k);
    if (it == got.end()) {
      *err = "snapshot digest is missing field " + k;
      return SnapshotStatus::ConfigMismatch;
    }
    if (it->second != v) {
      *err = "configuration mismatch on " + k + ": snapshot has \"" +
             it->second + "\", this run has \"" + v + "\"";
      return SnapshotStatus::ConfigMismatch;
    }
  }
  for (const auto& [k, v] : h.digest) {
    (void)v;
    if (!known.count(k) && !digest_field_relaxed(k)) {
      *err = "snapshot digest has unknown field " + k;
      return SnapshotStatus::ConfigMismatch;
    }
  }

  if (!r.begin_section("MSGS")) {
    *err = r.error();
    return SnapshotStatus::Error;
  }
  std::uint64_t nmsgs;
  if (!r.u64(&nmsgs)) {
    *err = r.error();
    return SnapshotStatus::Error;
  }
  for (std::uint64_t i = 0; i < nmsgs; ++i) {
    auto m = std::make_shared<Message>();
    if (!load_message(r, m.get())) {
      *err = r.error();
      return SnapshotStatus::Error;
    }
    const std::uint64_t id = m->id;
    r.put_shared(id, std::move(m));
  }
  if (!(r.end_section() && r.begin_section("BODY"))) {
    *err = r.error();
    return SnapshotStatus::Error;
  }
  if (!(sys->load_state(r, h.cycle) && r.end_section())) {
    *err = r.error().empty() ? "snapshot body rejected" : r.error();
    return SnapshotStatus::Error;
  }
  return SnapshotStatus::Ok;
}

bool read_snapshot_header(const std::string& path, SnapshotHeader* out,
                          std::string* err) {
  std::string bytes;
  if (!read_file(path, &bytes, err) || !check_envelope(bytes, out, err))
    return false;
  StateReader r(bytes.substr(kMagicBytes,
                             bytes.size() - kMagicBytes - kChecksumBytes));
  if (!parse_header(r, out, err)) return false;
  std::string tag;
  std::uint64_t len;
  if (!r.peek_section(&tag, &len) || tag != "MSGS") {
    *err = r.error().empty() ? "expected MSGS section" : r.error();
    return false;
  }
  out->msgs_bytes = len;
  // The section payload opens with the message count; read it in place
  // (tag + u64 length = 12 bytes of section header).
  if (len >= 8) out->msgs_count = read_le64(r.data().data() + r.pos() + 12);
  if (!r.skip_section()) {
    *err = r.error();
    return false;
  }
  if (!r.peek_section(&tag, &len) || tag != "BODY") {
    *err = r.error().empty() ? "expected BODY section" : r.error();
    return false;
  }
  out->body_bytes = len;
  return true;
}

}  // namespace rc
