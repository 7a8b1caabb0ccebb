#include "sim/system.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/state.hpp"
#include "cpu/apps.hpp"
#include "sim/telemetry.hpp"
#include "sim/validator.hpp"

namespace rc {

System::~System() = default;

System::System(const SystemConfig& cfg) : cfg_(cfg) {
  std::string err = cfg_.validate();
  if (!err.empty()) fatal("invalid SystemConfig: " + err);
  net_ = std::make_unique<Network>(cfg_.noc);
  validator_ = Validator::maybe_attach(net_.get());
  telemetry_ = Telemetry::maybe_attach(net_.get());
  // Protocol-variant runs exist to compare per-class circuit behaviour, so
  // they always tag trace events with the message type; the default
  // protocol keeps the historical byte-identical trace format unless
  // RC_TELEMETRY_TYPES asks for the tags.
  if (telemetry_ && cfg_.protocol != Protocol::FullMapMESI)
    telemetry_->enable_msg_types();
  amap_ = std::make_unique<AddressMap>(&net_->topo(), cfg_.partition_side);

  const int n = cfg_.noc.num_nodes();
  // Sized once, before any controller captures a pointer; never resized.
  node_sys_stats_.resize(static_cast<std::size_t>(n));
  Rng root(cfg_.seed);
  // workload "none" builds the full memory system without cores; tests
  // drive the L1s directly.
  const bool with_cores = cfg_.workload != "none";
  if (with_cores) core_profs_ = core_profiles(cfg_.workload, n, cfg_.seed);

  mcs_.resize(n);
  for (NodeId node : net_->topo().memory_controller_nodes()) {
    if (!mcs_[node])
      mcs_[node] = std::make_unique<MemoryController>(
          node, cfg_.cache, net_.get(), &node_sys_stats_[node]);
  }
  for (NodeId i = 0; i < n; ++i) {
    l1s_.push_back(std::make_unique<L1Cache>(i, cfg_.cache, net_.get(),
                                             amap_.get(), &node_sys_stats_[i]));
    l2s_.push_back(std::make_unique<L2Bank>(i, cfg_.cache, cfg_.noc.circuit,
                                            net_.get(), amap_.get(),
                                            &node_sys_stats_[i],
                                            cfg_.protocol));
    if (with_cores) {
      auto gen = std::make_unique<WorkloadGen>(core_profs_[i], i, n,
                                               root.fork(i + 1));
      if (amap_->partitioned()) {
        const int p = amap_->partition_of(i);
        gen->set_region_bases(
            kSharedBase + static_cast<Addr>(p) * kPartitionSharedSpan,
            kMigratoryBase + static_cast<Addr>(p) * kPartitionSharedSpan,
            static_cast<int>(amap_->partition_nodes(p).size()),
            amap_->partition_slot(i));
      }
      cores_.push_back(
          std::make_unique<Core>(i, std::move(gen), l1s_.back().get(),
                                 &node_sys_stats_[i]));
    }
  }

  net_->set_deliver([this](NodeId node, const MsgPtr& m) { deliver(node, m); });
  net_->set_reply_injected([this](NodeId node, const MsgPtr& m, bool circ) {
    l2s_[node]->on_reply_injected(m, circ, now());
  });
  // Serial per-node tick order within a shard: cores, L1s, L2 banks, MCs;
  // the engine appends the fabric.
  engine_.build(*net_, cfg_.shards, [this](ShardSchedule& s,
                                           const ShardRange& r) {
    for (NodeId i = r.begin; i < r.end; ++i)
      if (i < static_cast<NodeId>(cores_.size()))
        s.add(cores_[i].get(), "core");
    for (NodeId i = r.begin; i < r.end; ++i) s.add(l1s_[i].get(), "L1 cache");
    for (NodeId i = r.begin; i < r.end; ++i) s.add(l2s_[i].get(), "L2 bank");
    for (NodeId i = r.begin; i < r.end; ++i)
      if (mcs_[i]) s.add(mcs_[i].get(), "memory controller");
  });
}

void System::deliver(NodeId node, const MsgPtr& msg) {
  switch (msg->type) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::WbData:
    case MsgType::L1DataAck:
    case MsgType::L1InvAck:
    case MsgType::MemData:
    case MsgType::MemAck:
      l2s_[node]->handle(msg, now());
      break;
    case MsgType::Inv:
    case MsgType::FwdGetS:
    case MsgType::FwdGetX:
    case MsgType::L2Reply:
    case MsgType::L2WbAck:
    case MsgType::L1ToL1:
      l1s_[node]->handle(msg, now());
      break;
    case MsgType::MemRead:
    case MsgType::MemWb:
      RC_ASSERT(mcs_[node] != nullptr, "memory request at non-MC node");
      mcs_[node]->handle(msg, now());
      break;
  }
}

void System::run_cycles(Cycle n) {
  engine_.run(n);
  // Stall accounting is batched (cores skip ticks while blocked on the
  // memory system); fold everything up to the last simulated cycle in so
  // counters read after any run_cycles block are exact.
  if (now() > 0)
    for (auto& c : cores_) c->flush_stalls(now() - 1);
}

void System::reset_stats() {
  for (auto& s : node_sys_stats_) s.reset();
  net_->reset_stats();
  for (auto& c : cores_) c->reset_retired();
  // Mark the reset in the trace so rc-trace can align its default view with
  // the post-warmup aggregate counters.
  if (telemetry_) telemetry_->note_stats_reset(now());
}

StatSet System::merged_sys_stats() const {
  StatSet out;
  for (const auto& s : node_sys_stats_) out.merge(s);
  return out;
}

void System::prewarm() {
  if (prewarmed_ || cfg_.workload == "none") return;
  prewarmed_ = true;
  const int n = cfg_.noc.num_nodes();
  const bool sparse = cfg_.protocol == Protocol::SparseMSI;
  // Private hot sets: L1-resident, exclusively owned, present in the L2
  // home bank with the owning core in the directory. The rest of every
  // working set becomes L2-resident while capacity lasts (prewarm_line
  // refuses once a set is full), standing in for the paper's 200M-cycle
  // warm-up: first accesses are remote-L2 hits, and only footprints that
  // genuinely exceed the aggregate L2 (canneal, ocean, mcf/lbm in the mix)
  // keep producing memory traffic.
  struct Region {
    Addr base;
    std::uint32_t lines;
    std::uint32_t hot;  ///< leading lines also planted in `owner`'s L1
    NodeId owner;
  };
  std::vector<Region> regions;  // in program order
  for (NodeId c = 0; c < n; ++c) {
    const AppProfile& prof = core_profs_[c];
    // At least one hot line, and never more than the region holds.
    const auto hot = static_cast<std::uint32_t>(prof.private_lines *
                                                prof.hot_fraction);
    regions.push_back({kPrivateBase + static_cast<Addr>(c) * kPrivateStride,
                       prof.private_lines,
                       std::min(std::max(hot, 1u), prof.private_lines), c});
  }
  // Shared/migratory regions: every partition gets its slice (one slice,
  // offset zero, when the chip is monolithic). Sizes follow the largest
  // profile in use (homogeneous runs: the single app; mix has no sharing).
  std::uint32_t shared_lines = 0, mig_lines = 0;
  for (const auto& p : core_profs_) {
    shared_lines = std::max(shared_lines, p.shared_lines);
    mig_lines = std::max(mig_lines, p.migratory_lines);
  }
  for (int p = 0; p < amap_->num_partitions(); ++p) {
    const Addr soff = static_cast<Addr>(p) * kPartitionSharedSpan;
    regions.push_back({kSharedBase + soff, shared_lines, 0, kInvalidNode});
    regions.push_back({kMigratoryBase + soff, mig_lines, 0, kInvalidNode});
  }
  // Bank-major: each bank takes its own lines of every region, in program
  // order, so its arrays are walked once while cache-resident. Banks share
  // no state and each sees exactly its program-order install subsequence,
  // so every L2 and directory set fills as a program-order pass fills it.
  // Directory capacity gates a SparseMSI L1 copy (an untracked modified
  // line would dodge recalls); `refused` marks the hot lines it turned away.
  std::vector<std::vector<bool>> refused(static_cast<std::size_t>(n));
  for (NodeId c = 0; c < n; ++c) refused[c].resize(regions[c].hot);
  for (NodeId b = 0; b < n; ++b) {
    L2Bank& bank = *l2s_[b];
    for (const Region& r : regions) {
      const auto [first, step] = amap_->homed_lines(r.base, r.lines, b);
      for (std::uint64_t i = first; i < r.lines; i += step) {
        const bool hot = i < r.hot;
        if (!bank.prewarm_line(r.base + i * kLineBytes,
                               hot ? r.owner : kInvalidNode) &&
            hot && sparse)
          refused[r.owner][i] = true;
      }
    }
  }
  // Hot L1 copies (full-map MESI plants them regardless of L2 capacity).
  // MSI has no E, so hot lines warm up in M.
  for (NodeId c = 0; c < n; ++c)
    for (std::uint32_t i = 0; i < regions[c].hot; ++i)
      if (!refused[c][i])
        l1s_[c]->prewarm_line(regions[c].base + Addr{i} * kLineBytes,
                              sparse ? L1State::M : L1State::E);
}

Cycle System::run() {
  run_to(cfg_.warmup_cycles + cfg_.measure_cycles);
  return cfg_.measure_cycles;
}

void System::run_to(Cycle t) {
  RC_ASSERT(t >= now(), "run_to cannot move the clock backwards");
  prewarm();
  const Cycle w = cfg_.warmup_cycles;
  if (now() < w && t > w) run_cycles(w - now());
  if (now() == w && t > w) reset_stats();
  if (t > now()) run_cycles(t - now());
}

void System::save_state(StateWriter& w) const {
  w.begin_section("CORE");
  w.u64(cores_.size());
  for (const auto& c : cores_) c->save(w);
  w.end_section();
  w.begin_section("L1CA");
  w.u64(l1s_.size());
  for (const auto& c : l1s_) c->save(w);
  w.end_section();
  w.begin_section("L2BK");
  w.u64(l2s_.size());
  for (const auto& c : l2s_) c->save(w);
  w.end_section();
  w.begin_section("MCTL");
  std::uint64_t nmc = 0;
  for (const auto& m : mcs_)
    if (m) ++nmc;
  w.u64(nmc);
  for (const auto& m : mcs_)
    if (m) m->save(w);
  w.end_section();
  w.begin_section("STAT");
  w.u64(node_sys_stats_.size());
  for (const auto& s : node_sys_stats_) s.save(w);
  w.end_section();
  w.begin_section("NETW");
  net_->save(w);
  w.end_section();
  // Observer state rides along so a checked / traced run resumes
  // byte-identically. Presence is environment-gated, not config-gated, so
  // each section records whether it carries state.
  w.begin_section("VLDT");
  w.b(validator_ != nullptr);
  if (validator_) validator_->save(w);
  w.end_section();
  w.begin_section("TELE");
  w.b(telemetry_ != nullptr);
  if (telemetry_) telemetry_->save(w);
  w.end_section();
}

bool System::load_state(StateReader& r, Cycle cycle) {
  RC_ASSERT(now() == 0 && !prewarmed_,
            "snapshots load only into a freshly constructed System");
  auto check_count = [&r](const char* what, std::uint64_t have,
                          std::uint64_t want) {
    if (have == want) return true;
    return r.fail(std::string(what) + ": system has " + std::to_string(have) +
                  ", snapshot has " + std::to_string(want));
  };
  std::uint64_t n;
  if (!(r.begin_section("CORE") && r.u64(&n) &&
        check_count("cores", cores_.size(), n)))
    return false;
  for (auto& c : cores_)
    if (!c->load(r)) return false;
  if (!(r.end_section() && r.begin_section("L1CA") && r.u64(&n) &&
        check_count("L1 caches", l1s_.size(), n)))
    return false;
  for (auto& c : l1s_)
    if (!c->load(r)) return false;
  if (!(r.end_section() && r.begin_section("L2BK") && r.u64(&n) &&
        check_count("L2 banks", l2s_.size(), n)))
    return false;
  for (auto& c : l2s_)
    if (!c->load(r)) return false;
  std::uint64_t nmc = 0;
  for (const auto& m : mcs_)
    if (m) ++nmc;
  if (!(r.end_section() && r.begin_section("MCTL") && r.u64(&n) &&
        check_count("memory controllers", nmc, n)))
    return false;
  for (auto& m : mcs_)
    if (m && !m->load(r)) return false;
  if (!(r.end_section() && r.begin_section("STAT") && r.u64(&n) &&
        check_count("stat sets", node_sys_stats_.size(), n)))
    return false;
  for (auto& s : node_sys_stats_)
    if (!s.load(r)) return false;
  if (!(r.end_section() && r.begin_section("NETW") && net_->load(r) &&
        r.end_section()))
    return false;
  if (validator_) {
    bool had;
    if (!(r.begin_section("VLDT") && r.b(&had))) return false;
    if (!had)
      return r.fail(
          "RC_CHECK is enabled but the snapshot was taken without it; the "
          "validator cannot reconstruct pre-snapshot in-flight state");
    if (!(validator_->load(r) && r.end_section())) return false;
  } else if (!r.skip_section()) {
    return false;
  }
  if (telemetry_) {
    bool had;
    if (!(r.begin_section("TELE") && r.b(&had))) return false;
    if (!had)
      return r.fail(
          "RC_TELEMETRY is enabled but the snapshot was taken without it; "
          "the resumed trace would not match an uninterrupted run");
    if (!(telemetry_->load(r) && r.end_section())) return false;
  } else if (!r.skip_section()) {
    return false;
  }
  prewarmed_ = true;
  engine_.set_now(cycle);
  return r.ok();
}

std::uint64_t System::total_retired() const {
  std::uint64_t t = 0;
  for (const auto& c : cores_) t += c->retired();
  return t;
}

}  // namespace rc
