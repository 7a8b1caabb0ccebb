// Full-system snapshot files (DESIGN.md §16).
//
// Layout ("RCSNAP01"):
//
//   magic[8]  "RCSNAP01"
//   u32       format version (kSnapshotVersion)
//   u64       simulated cycle the snapshot was taken at
//   u32       node count
//   digest    u64 field count, then (name, value) string pairs — every
//             SystemConfig field under a dotted name, in declaration order
//   MSGS      section: the shared-Message table (swizzle registry), each
//             in-flight Message written once under its globally unique id
//   BODY      section: System::save_state — every component in fixed order
//   u64       FNV-1a checksum over everything before it
//
// A snapshot may only be loaded into a *freshly constructed* System whose
// configuration matches the stored digest on every field except the
// relaxed ones (measurement length, shard count, tick mode — all
// simulation-identical by the determinism contract). Wake stamps are not
// stored: a fresh System starts with every component awake, which is
// conservative for any restore cycle, so the first sweep re-arms the
// activity scheduler exactly; this is also what makes snapshots portable
// across RC_SHARDS values.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rc {

class System;
struct SystemConfig;

/// Bumped whenever a section's layout changes; only the current version is
/// read. 2: the NI section no longer carries origin tombstones, per-key
/// versions or the scan-memo generation.
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr const char kSnapshotMagic[9] = "RCSNAP01";

/// Every SystemConfig field as a (dotted-name, value) pair, in declaration
/// order. The full list is stored in the snapshot and compared on load.
using ConfigDigest = std::vector<std::pair<std::string, std::string>>;
ConfigDigest config_digest(const SystemConfig& cfg);

/// Fields a resumed run may legally change: the measurement length, the
/// worker-shard count and the tick mode do not affect simulated state.
bool digest_field_relaxed(const std::string& name);

/// FNV-1a over the strict (non-relaxed) digest subset. Sweep points with
/// equal hashes simulate identical warm-up phases and can share one
/// end-of-warm-up snapshot (rc-dse warm-start grouping). The digest
/// overload lets tools hash a digest read back from a snapshot file.
std::uint64_t warm_group_hash(const ConfigDigest& digest);
std::uint64_t warm_group_hash(const SystemConfig& cfg);

/// Parsed snapshot header (tools/rc-state; also the load-time checks).
struct SnapshotHeader {
  std::uint32_t version = 0;
  Cycle cycle = 0;
  std::uint32_t num_nodes = 0;
  ConfigDigest digest;
  std::uint64_t msgs_bytes = 0;  ///< MSGS section payload size
  std::uint64_t body_bytes = 0;  ///< BODY section payload size
  std::uint64_t msgs_count = 0;  ///< in-flight shared messages
  std::uint64_t file_bytes = 0;
  std::uint64_t checksum = 0;    ///< stored trailing FNV-1a
};

enum class SnapshotStatus {
  Ok,
  ConfigMismatch,  ///< digest disagrees on a strict field (err names it)
  Error,           ///< unreadable / corrupt / version-mismatched / internal
};

/// Serialize the full simulator state at the current cycle and write it
/// atomically to `path`. The System must sit at a cycle boundary (any time
/// outside run_cycles), where cross-shard mailboxes are flushed.
bool save_snapshot(System& sys, const std::string& path, std::string* err);

/// Restore `path` into a freshly constructed System (now() == 0). On
/// ConfigMismatch *err names the first mismatching field.
SnapshotStatus load_snapshot(System* sys, const std::string& path,
                             std::string* err);

/// Parse the header (through the section directory) without a System.
bool read_snapshot_header(const std::string& path, SnapshotHeader* out,
                          std::string* err);

}  // namespace rc
