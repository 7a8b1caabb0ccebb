// rc-state: inspect and diff RCSNAP01 snapshot files (sim/snapshot.hpp).
//
//   rc-state <file>           header, config digest, section directory
//   rc-state diff <a> <b>     field-level comparison; exit 0 iff equivalent
//
// The inspector only needs the envelope and the section directory — it
// never reconstructs a System, so it works on snapshots from configs this
// build could not even instantiate (and, thanks to length-prefixed
// sections, on BODY layouts it does not fully understand).
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/state.hpp"
#include "sim/snapshot.hpp"

using namespace rc;

namespace {

using SectionDir = std::vector<std::pair<std::string, std::uint64_t>>;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: rc-state <file.state>\n"
               "       rc-state diff <a.state> <b.state>\n");
  std::exit(2);
}

/// Header via read_snapshot_header, plus the BODY section's child
/// directory (one entry per component group) walked with peek/skip.
bool inspect(const std::string& path, SnapshotHeader* h, SectionDir* dir,
             std::string* err) {
  std::string bytes;
  if (!read_snapshot_header(path, h, err) || !read_file(path, &bytes, err))
    return false;
  StateReader r(bytes.substr(8, bytes.size() - 16));
  std::uint32_t u32v;
  std::uint64_t u64v, nfields;
  if (!(r.u32(&u32v) && r.u64(&u64v) && r.u32(&u32v) && r.u64(&nfields))) {
    *err = r.error();
    return false;
  }
  for (std::uint64_t i = 0; i < nfields; ++i) {
    std::string k, v;
    if (!(r.str(&k) && r.str(&v))) {
      *err = r.error();
      return false;
    }
  }
  if (!(r.skip_section() && r.begin_section("BODY"))) {  // MSGS, then BODY
    *err = r.error();
    return false;
  }
  while (!r.at_end()) {
    std::string tag;
    std::uint64_t len;
    if (!(r.peek_section(&tag, &len) && r.skip_section())) {
      *err = r.error();
      return false;
    }
    dir->emplace_back(tag, len);
  }
  return true;
}

void print_one(const std::string& path, const SnapshotHeader& h,
               const SectionDir& dir) {
  std::printf("%s: RCSNAP01 snapshot, %llu bytes, checksum %016llx (ok)\n",
              path.c_str(), static_cast<unsigned long long>(h.file_bytes),
              static_cast<unsigned long long>(h.checksum));
  std::printf("  format version  %u\n", h.version);
  std::printf("  cycle           %llu\n",
              static_cast<unsigned long long>(h.cycle));
  std::printf("  nodes           %u\n", h.num_nodes);
  std::printf("  in-flight msgs  %llu (MSGS table %llu bytes)\n",
              static_cast<unsigned long long>(h.msgs_count),
              static_cast<unsigned long long>(h.msgs_bytes));
  std::printf("  body            %llu bytes\n",
              static_cast<unsigned long long>(h.body_bytes));
  std::printf("  warm-group hash %016llx\n",
              static_cast<unsigned long long>(warm_group_hash(h.digest)));
  std::printf("  sections:\n");
  for (const auto& [tag, len] : dir)
    std::printf("    %-4s %llu bytes\n", tag.c_str(),
                static_cast<unsigned long long>(len));
  std::printf("  config digest (%zu fields):\n", h.digest.size());
  for (const auto& [k, v] : h.digest)
    std::printf("    %-30s %s%s\n", k.c_str(), v.c_str(),
                digest_field_relaxed(k) ? "   (relaxed)" : "");
}

int diff(const std::string& pa, const std::string& pb) {
  SnapshotHeader a, b;
  SectionDir da, db;
  std::string err;
  if (!inspect(pa, &a, &da, &err)) {
    std::fprintf(stderr, "rc-state: %s: %s\n", pa.c_str(), err.c_str());
    return 2;
  }
  if (!inspect(pb, &b, &db, &err)) {
    std::fprintf(stderr, "rc-state: %s: %s\n", pb.c_str(), err.c_str());
    return 2;
  }
  int diffs = 0;
  auto note = [&diffs](const char* what, const std::string& va,
                       const std::string& vb) {
    std::printf("  %-30s %s  ->  %s\n", what, va.c_str(), vb.c_str());
    ++diffs;
  };
  auto num = [](std::uint64_t v) { return std::to_string(v); };
  std::printf("diff %s %s\n", pa.c_str(), pb.c_str());
  if (a.version != b.version) note("format version", num(a.version), num(b.version));
  if (a.cycle != b.cycle) note("cycle", num(a.cycle), num(b.cycle));
  if (a.num_nodes != b.num_nodes) note("nodes", num(a.num_nodes), num(b.num_nodes));
  if (a.msgs_count != b.msgs_count)
    note("in-flight msgs", num(a.msgs_count), num(b.msgs_count));
  std::map<std::string, std::string> ma(a.digest.begin(), a.digest.end());
  std::map<std::string, std::string> mb(b.digest.begin(), b.digest.end());
  std::set<std::string> names;
  for (const auto& [k, v] : ma) names.insert(k);
  for (const auto& [k, v] : mb) names.insert(k);
  for (const auto& k : names) {
    const auto ia = ma.find(k), ib = mb.find(k);
    const std::string va = ia == ma.end() ? "(absent)" : ia->second;
    const std::string vb = ib == mb.end() ? "(absent)" : ib->second;
    if (va != vb) note(k.c_str(), va, vb);
  }
  std::map<std::string, std::uint64_t> sa(da.begin(), da.end());
  std::map<std::string, std::uint64_t> sb(db.begin(), db.end());
  std::set<std::string> tags;
  for (const auto& [k, v] : sa) tags.insert(k);
  for (const auto& [k, v] : sb) tags.insert(k);
  for (const auto& t : tags) {
    const std::uint64_t va = sa.count(t) ? sa[t] : 0;
    const std::uint64_t vb = sb.count(t) ? sb[t] : 0;
    if (va != vb)
      note(("section " + t + " bytes").c_str(), num(va), num(vb));
  }
  if (diffs == 0 && a.checksum != b.checksum) {
    // Same shape, different contents: point at the first differing section.
    std::printf("  headers match; section contents differ (checksums %016llx "
                "vs %016llx)\n",
                static_cast<unsigned long long>(a.checksum),
                static_cast<unsigned long long>(b.checksum));
    ++diffs;
  }
  if (diffs == 0) {
    std::printf("  identical\n");
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && !std::strcmp(argv[1], "diff")) return diff(argv[2], argv[3]);
  if (argc != 2 || !std::strcmp(argv[1], "--help")) usage();
  SnapshotHeader h;
  SectionDir dir;
  std::string err;
  if (!inspect(argv[1], &h, &dir, &err)) {
    std::fprintf(stderr, "rc-state: %s: %s\n", argv[1], err.c_str());
    return 2;
  }
  print_one(argv[1], h, dir);
  return 0;
}
