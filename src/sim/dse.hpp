// rc-dse: resumable, crash-isolated batch runs (the one batch runner).
//
// The paper's evaluation is a grid (app x variant x mesh x circuit budget)
// and the repo has grown more axes. rc-dse's spec sweeps and rc-repro's
// report both run through run_sweep: one bad configuration (an OOM, a
// fatal(), an assert) must not take a batch down, and an hours-long grid
// cannot be restarted from zero.
//
// This layer runs every sweep point as its own *process* (a fork/exec of
// rc-sim's --point-out mode, or any argv-compatible runner), in its own
// working directory, under a wall-clock timeout, with bounded retry and
// rusage capture. A crashing point is recorded as `failed` and the sweep
// continues. Progress is a JSONL journal — one fsync'd record per terminal
// point — plus an atomic-rename manifest, so an interrupted sweep resumes
// by skipping journaled points and re-running in-flight ones. Aggregation
// is deterministic (point order, no wall-clock fields in results.jsonl /
// results.csv), so an interrupted-then-resumed sweep produces byte-identical
// aggregates to an uninterrupted one; summary.json carries the wall-clock
// view, and compare_summaries (`rc-dse --compare`) gates the sweep on perf
// regressions against a baseline summary.
//
// Split: everything here is library code (unit-tested by tests/test_dse.cpp,
// including the process runner, against a scripted fake runner); tools/
// rc_dse.cpp is the thin CLI. The point itself (SweepPoint, its keys and its
// rc-sim flags) is sim/point.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/point.hpp"

namespace rc {

struct RunResult;

// ---- spec parsing and expansion -------------------------------------------

/// Parse a declarative sweep spec (JSON text) and expand it into the full
/// point list, in deterministic order.
///
///   {
///     "mesh": ["4x4", "8x8"],          // any axis: scalar or list
///     "preset": ["Baseline", "SlackDelay1_NoAck"],
///     "app": "fft",
///     "seed": [1, 2, 3],
///     "warmup": 500, "cycles": 2000,   // axes too: lists sweep them
///     "exclude": [                     // drop points matching ALL pairs
///       {"topology": "ring", "preset": "Fragmented"}
///     ],
///     "points": [                      // explicit extra points (rc-fuzz
///       {"preset": "Complete", ...}    //   --spec-out emits these)
///     ]
///   }
///
/// Axes: the rows of point_axes() (sim/point.hpp). Expansion is a
/// cross-product in that table's order (cycles fastest); explicit "points"
/// follow in spec order. Unknown keys, unknown axis values (presets, apps,
/// topology names...) and malformed entries are errors, not skips
/// (validate_point). Returns false with *err on any problem.
bool parse_sweep_spec(const std::string& json_text, std::vector<SweepPoint>* out,
                      std::string* err);

// ---- single-point results (rc-sim --point-out) ----------------------------

/// Machine-readable single-point result: one JSON line, fixed key order,
/// deterministic fields first, wall-clock last. After the run's metadata
/// come both whole StatSets, "net" and "sys" (StatSet::to_json). Written by
/// rc-sim's --point-out mode via the atomic helper.
std::string point_result_json(const RunResult& r, const std::string& protocol,
                              std::uint64_t seed, Cycle warmup, double wall_s);

/// The RunResult point `p`'s point_result_json line records, bit for bit:
/// retired and the StatSets from the line, the rest from point_config(p)
/// as extract_result computes it. load_point_result reads the result.json
/// run_sweep left for point `id` under `out_dir`.
bool read_point_result(const std::string& json_text, const SweepPoint& p,
                       RunResult* out, std::string* err);
bool load_point_result(const std::string& out_dir, long long id,
                       const SweepPoint& p, RunResult* out, std::string* err);

// ---- journal --------------------------------------------------------------

struct JournalRecord {
  long long id = -1;          ///< index into the expanded point list
  std::string key;            ///< point_key() at journal time
  std::string status;         ///< "ok" | "failed" | "timeout"
  int attempts = 0;
  int exit_code = 0;          ///< last exit status (128+sig for signals)
  double wall_s = 0;          ///< last attempt, driver-measured
  long long maxrss_kb = 0;    ///< wait4 rusage of the last attempt
};

std::string journal_line(const JournalRecord& r);

/// Load a journal written by run_sweep. Each complete line must parse
/// (corruption in the middle is an error); a torn *final* line — the
/// record a crashed writer was appending — is skipped and reported via
/// *torn_tail. A missing file yields an empty vector.
bool load_journal(const std::string& path, std::vector<JournalRecord>* out,
                  bool* torn_tail, std::string* err);

// ---- the sweep driver -----------------------------------------------------

struct DseOptions {
  std::vector<SweepPoint> points;  ///< e.g. from parse_sweep_spec
  std::string out_dir;       ///< journal, manifest, aggregates, point dirs
  std::string runner;        ///< rc-sim(-compatible) binary; resolved to abs
  int jobs = 1;              ///< concurrent worker processes
  double timeout_s = 0;      ///< wall-clock per attempt; 0 = none
  int max_attempts = 2;      ///< crash retries (timeouts are terminal)
  double backoff_s = 0.5;    ///< sleep before retry, scaled by attempt
  bool resume = false;       ///< skip journaled points; else a journal is an error
  long long max_points = -1; ///< stop scheduling after N newly terminal points
                             ///< (deterministic "interruption" for tests/ops)
  /// Warm-start sharing: points with equal warm_key run their warm-up once.
  /// The first such point (the group leader) runs with --save-state and
  /// deposits out/snapshots/<hash>/warmup.state; the rest wait for it and
  /// resume from the snapshot with --load-state. Results are byte-identical
  /// either way (the snapshot identity contract), so this is purely a
  /// wall-clock optimization — disable to re-run every warm-up from zero.
  bool warm_start = true;
  bool verbose = false;
};

struct DseOutcome {
  long long total = 0;       ///< expanded points
  long long skipped = 0;     ///< journaled before this run (resume)
  long long ok = 0;          ///< terminal this run or before, status ok
  long long failed = 0;
  long long timeout = 0;
  long long snapshots = 0;   ///< warm-up snapshots written by group leaders
  long long warm_loaded = 0; ///< points resumed from a shared snapshot
  bool stopped_early = false;
};

/// Schedule, journal, aggregate. Returns:
///   0  every point ok (sweep complete)
///   3  sweep complete but some points failed / timed out
///  10  stopped early (max_points) — aggregates cover the completed subset
///   2  setup error (no or invalid points, unusable out dir / runner, a
///      journal whose points this list does not hold); *err filled
int run_sweep(const DseOptions& opt, DseOutcome* outcome, std::string* err);

/// `name` beside the argv0 binary: how rc-dse and rc-repro find rc-sim.
std::string sibling_binary(const char* argv0, const char* name);

// ---- the perf gate (rc-dse --compare) -------------------------------------

/// Compare two summary.json files: for every (name, shards) row of
/// `baseline` that `current` also has, the speedup in cycles_per_sec, then
/// the geometric mean over the matched rows. The table goes to *report.
/// Returns:
///   0  no matched row is more than 10% slower than its baseline
///   1  at least one is; *err names how many
///   2  either file is unreadable, truncated or not a summary (no complete
///      JSON document with a non-empty "results" array of name / shards /
///      cycles_per_sec rows), or no row matches; *err filled
int compare_summaries(const std::string& baseline, const std::string& current,
                      std::string* report, std::string* err);

}  // namespace rc
