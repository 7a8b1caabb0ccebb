// Experiment driver: runs configurations and derives the per-figure metrics.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace rc {

/// Everything measured in one simulation run.
struct RunResult {
  std::string preset;
  std::string app;
  int cores = 0;
  Cycle cycles = 0;
  std::uint64_t retired = 0;
  double ipc = 0;
  double energy_per_instr = 0;
  StatSet net;  ///< network-side counters/accumulators
  StatSet sys;  ///< controller-side counters
  NocConfig noc;
};

/// Fig. 6: fractions of all reply messages (eliminated ACKs count in the
/// denominator, as in the paper).
struct ReplyBreakdown {
  double used = 0;
  double failed = 0;     ///< includes fragmented partial circuits
  double undone = 0;
  double scrounged = 0;
  double not_eligible = 0;
  double eliminated = 0;
  double other = 0;      ///< eligible, mechanism off / no circuit attempted
  std::uint64_t total_replies = 0;
};

class System;

/// Derive the metrics of a completed simulation: flush/print telemetry,
/// then fill a RunResult from the System's merged statistics. Shared by
/// run_config and drivers that step a System manually (snapshot save /
/// resume in rc-sim, tracing).
RunResult extract_result(System& sys, const std::string& label);

RunResult run_one(int cores, const std::string& preset, const std::string& app,
                  std::uint64_t seed = 1, Cycle warmup = 20'000,
                  Cycle measure = 100'000);

/// Run an arbitrary (possibly hand-tweaked) configuration in-process;
/// `label` names it in the result. Batches of configurations go through
/// run_sweep (sim/dse.hpp), one rc-sim process per point.
RunResult run_config(SystemConfig cfg, const std::string& label);

ReplyBreakdown reply_breakdown(const RunResult& r);

/// Convenience: measured window length scaling via environment.
/// RC_MEASURE_CYCLES / RC_WARMUP_CYCLES / RC_FULL=1 (bench_apps() is then
/// the paper's 22 models, else app_names_small()). Each
/// exits 2 naming the knob on a malformed value; RC_FULL accepts only 0
/// or 1.
Cycle env_measure_cycles(Cycle fallback);
Cycle env_warmup_cycles(Cycle fallback);
const std::vector<std::string>& bench_apps();

}  // namespace rc
