// Markdown table rendering for the tools' reports, and the telemetry trace
// export (JSONL / CSV) behind RC_TELEMETRY.
#pragma once

#include <string>
#include <vector>

namespace rc {

class Telemetry;
struct TraceSummary;

/// Serialize a Telemetry accumulation to `path`. A path ending in ".csv"
/// gets a samples-only CSV (one row per RC_SAMPLE_EVERY window); anything
/// else gets the full JSONL trace — one header line, then events and
/// samples interleaved in cycle order. The byte stream is a pure function
/// of the accumulated data, so shard-identical runs produce identical
/// files. Returns false with a diagnostic in *err on I/O failure.
bool write_telemetry_file(const Telemetry& t, const std::string& path,
                          std::string* err);

/// Print a digest of a trace (event counts, Fig. 6 reply categories,
/// per-ending circuit lifetimes, undo ratio, time-to-first-bind, sampled
/// occupancy) as aligned tables on stdout.
void print_telemetry_summary(const TraceSummary& s, const std::string& title);

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Render to stdout as a padded GitHub-Markdown pipe table, after a blank
  /// line and, when given, a bold title line.
  void print(const std::string& title = "") const;

  static std::string pct(double fraction, int decimals = 1);
  static std::string num(double v, int decimals = 2);

 private:
  /// The telemetry digest's fixed-width layout. The rc_default_identity
  /// golden pins the digest's bytes, so it keeps this layout.
  void print_aligned(const std::string& title) const;
  friend void print_telemetry_summary(const TraceSummary& s,
                                      const std::string& title);

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rc
