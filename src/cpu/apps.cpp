#include "cpu/apps.hpp"

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rc {

namespace {

// Parameters are chosen to span the behaviours the paper's workloads expose
// to the NoC: light vs heavy memory intensity, L1-resident vs streaming
// working sets, read-shared data (owner forwarding), write-shared data
// (invalidation rounds) and migratory lines. Hot subsets are sized around
// 256 lines so they are L1-resident (the 32KB/64B L1 holds 512 lines),
// giving realistic per-app L1 miss rates of roughly 3-15% of accesses; cold
// accesses exercise the L2 and, for the large-footprint apps (canneal,
// ocean, mix), main memory. The multiprogrammed mix has no sharing and a
// working set that spills out of the aggregate L2.
std::map<std::string, AppProfile> build_profiles() {
  std::map<std::string, AppProfile> m;
  auto add = [&](AppProfile p) { m[p.name] = p; };
  // name, mem_ratio, priv_lines, shared_lines, p_shared, p_wr_priv,
  // p_wr_shared, p_hot, hot_frac, migratory_lines, p_migratory
  //
  // Hot subsets are ~256 lines (hot_frac * priv_lines) so they fit the
  // 512-line L1; total footprints stay near half the aggregate L2 except
  // for canneal / ocean / mix, which deliberately stream through it.
  add({"blackscholes", 0.20, 2048, 256, 0.02, 0.35, 0.015, 0.97, 0.125, 0, 0});
  add({"bodytrack", 0.25, 4096, 1024, 0.08, 0.40, 0.030, 0.96, 0.0625, 0, 0});
  add({"canneal", 0.35, 24576, 8192, 0.20, 0.40, 0.045, 0.90, 0.0104, 0, 0});
  add({"dedup", 0.30, 6144, 2048, 0.10, 0.45, 0.030, 0.95, 0.0417, 0, 0});
  add({"ferret", 0.30, 6144, 2048, 0.08, 0.40, 0.024, 0.95, 0.0417, 0, 0});
  add({"fluidanimate", 0.30, 4096, 1024, 0.12, 0.40, 0.045, 0.95, 0.0625, 64, 0.02});
  add({"raytrace", 0.25, 12288, 8192, 0.25, 0.30, 0.006, 0.93, 0.0208, 0, 0});
  add({"swaptions", 0.20, 2048, 256, 0.02, 0.40, 0.015, 0.97, 0.125, 0, 0});
  add({"vips", 0.30, 6144, 1024, 0.06, 0.45, 0.030, 0.95, 0.0417, 0, 0});
  add({"x264", 0.30, 6144, 2048, 0.08, 0.40, 0.036, 0.95, 0.0417, 32, 0.01});
  add({"barnes", 0.30, 6144, 4096, 0.18, 0.40, 0.036, 0.94, 0.0417, 128, 0.03});
  add({"cholesky", 0.30, 6144, 2048, 0.08, 0.40, 0.024, 0.95, 0.0417, 0, 0});
  add({"fft", 0.35, 8192, 4096, 0.12, 0.45, 0.030, 0.94, 0.03125, 0, 0});
  add({"lu_cb", 0.30, 6144, 2048, 0.08, 0.45, 0.024, 0.95, 0.0417, 0, 0});
  add({"lu_ncb", 0.30, 12288, 4096, 0.12, 0.45, 0.030, 0.93, 0.0208, 0, 0});
  add({"ocean_cp", 0.35, 16384, 4096, 0.15, 0.45, 0.036, 0.92, 0.0156, 0, 0});
  add({"ocean_ncp", 0.35, 16384, 4096, 0.20, 0.45, 0.036, 0.92, 0.0156, 0, 0});
  add({"radiosity", 0.30, 6144, 4096, 0.12, 0.40, 0.030, 0.94, 0.0417, 96, 0.02});
  add({"volrend", 0.25, 6144, 2048, 0.08, 0.35, 0.015, 0.95, 0.0417, 0, 0});
  add({"water_nsquared", 0.25, 4096, 1024, 0.08, 0.40, 0.024, 0.96, 0.0625, 48, 0.02});
  add({"water_spatial", 0.25, 4096, 1024, 0.06, 0.40, 0.024, 0.96, 0.0625, 0, 0});
  // SPEC CPU2006 multiprogrammed mix: private-only, streaming, spills L2.
  add({"mix", 0.40, 65536, 0, 0.0, 0.45, 0.000, 0.88, 0.004, 0, 0});
  // Structured sharing-stress generators (AccessPattern): pairwise
  // producer-consumer forwards and many-reader/one-writer hot lines. Small
  // private sets keep the traffic dominated by the sharing pattern.
  add({"producer_consumer", 0.30, 2048, 2048, 0.60, 0.30, 0.0, 0.95, 0.125,
       0, 0, AccessPattern::ProducerConsumer});
  add({"sharing_heavy", 0.30, 2048, 1024, 0.60, 0.30, 0.50, 0.95, 0.125,
       0, 0, AccessPattern::SharingHeavy});
  return m;
}

const std::map<std::string, AppProfile>& profiles() {
  static const std::map<std::string, AppProfile> m = build_profiles();
  return m;
}

// SPEC CPU2006 single-thread models: private-only streams with the large
// working sets the paper selected. Parameters span the published MPKI
// spectrum: cache-friendly (h264ref, hmmer) to memory-bound streamers
// (mcf, lbm, milc). hot_frac keeps the hot set L1-resident.
std::map<std::string, AppProfile> build_spec_profiles() {
  std::map<std::string, AppProfile> m;
  auto add = [&](AppProfile p) { m[p.name] = p; };
  // name, mem_ratio, priv_lines, (no sharing), p_wr_priv, p_hot, hot_frac
  auto spec = [&](const char* name, double mem, std::uint32_t lines,
                  double wr, double hot, double hf) {
    add({name, mem, lines, 0, 0.0, wr, 0.0, hot, hf, 0, 0});
  };
  spec("bzip2", 0.35, 16384, 0.35, 0.93, 0.0156);
  spec("gcc", 0.40, 24576, 0.40, 0.92, 0.0104);
  spec("mcf", 0.45, 98304, 0.30, 0.82, 0.0026);
  spec("gobmk", 0.35, 12288, 0.35, 0.94, 0.0208);
  spec("hmmer", 0.40, 6144, 0.45, 0.97, 0.0417);
  spec("sjeng", 0.35, 12288, 0.35, 0.94, 0.0208);
  spec("libquantum", 0.45, 65536, 0.40, 0.85, 0.0039);
  spec("h264ref", 0.40, 8192, 0.40, 0.96, 0.03125);
  spec("omnetpp", 0.40, 49152, 0.40, 0.87, 0.0052);
  spec("astar", 0.40, 32768, 0.35, 0.89, 0.0078);
  spec("xalancbmk", 0.40, 32768, 0.35, 0.89, 0.0078);
  spec("bwaves", 0.45, 65536, 0.40, 0.86, 0.0039);
  spec("milc", 0.45, 81920, 0.40, 0.84, 0.0031);
  spec("cactusADM", 0.40, 49152, 0.40, 0.88, 0.0052);
  spec("leslie3d", 0.45, 49152, 0.40, 0.87, 0.0052);
  spec("lbm", 0.45, 98304, 0.45, 0.83, 0.0026);
  return m;
}

const std::map<std::string, AppProfile>& spec_profiles() {
  static const std::map<std::string, AppProfile> m = build_spec_profiles();
  return m;
}

}  // namespace

const std::vector<std::string>& paper_app_names() {
  static const std::vector<std::string> v = {
      "blackscholes", "bodytrack", "canneal", "dedup", "ferret",
      "fluidanimate", "raytrace", "swaptions", "vips", "x264",
      "barnes", "cholesky", "fft", "lu_cb", "lu_ncb", "ocean_cp",
      "ocean_ncp", "radiosity", "volrend", "water_nsquared",
      "water_spatial", "mix"};
  return v;
}

const std::vector<std::string>& app_names() {
  static const std::vector<std::string> v = [] {
    std::vector<std::string> all = paper_app_names();
    all.push_back("producer_consumer");
    all.push_back("sharing_heavy");
    return all;
  }();
  return v;
}

const std::vector<std::string>& app_names_small() {
  static const std::vector<std::string> v = {
      "blackscholes", "canneal", "fluidanimate", "barnes", "fft", "mix"};
  return v;
}

AppProfile app_profile(const std::string& name) {
  auto it = profiles().find(name);
  if (it == profiles().end()) fatal("unknown application model: " + name);
  return it->second;
}

const std::vector<std::string>& spec_app_names() {
  static const std::vector<std::string> v = {
      "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng", "libquantum",
      "h264ref", "omnetpp", "astar", "xalancbmk", "bwaves", "milc",
      "cactusADM", "leslie3d", "lbm"};
  return v;
}

AppProfile spec_profile(const std::string& name) {
  auto it = spec_profiles().find(name);
  if (it == spec_profiles().end())
    fatal("unknown SPEC application model: " + name);
  return it->second;
}

std::vector<AppProfile> core_profiles(const std::string& workload,
                                      int num_cores, std::uint64_t seed) {
  std::vector<AppProfile> out;
  if (workload != "mix") {
    out.assign(num_cores, app_profile(workload));
    return out;
  }
  // §5.1: randomly distribute the 16 SPEC applications over the cores;
  // on the 64-core chip each appears four times.
  const auto& names = spec_app_names();
  std::vector<int> slots;
  for (int i = 0; i < num_cores; ++i)
    slots.push_back(i % static_cast<int>(names.size()));
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x1234567ull);
  for (std::size_t i = slots.size(); i > 1; --i)
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  for (int i = 0; i < num_cores; ++i)
    out.push_back(spec_profile(names[slots[i]]));
  return out;
}

}  // namespace rc
