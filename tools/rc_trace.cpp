// rc-trace: summarize, compare and export telemetry traces (RC_TELEMETRY
// output).
//
//   rc-trace summarize FILE [--all]
//   rc-trace diff A B [--all]
//   rc-trace export --chrome IN.jsonl OUT.json [--all]
//
// `summarize` digests one JSONL trace: event counts, Fig. 6 reply-category
// fractions, per-ending circuit lifetimes, undo ratio, time-to-first-bind,
// and the sampled occupancy series. `diff` prints the same metrics for two
// traces side by side with deltas — e.g. a run before and after a knob
// change, or the same workload across circuit variants. `export --chrome`
// converts a trace into Chrome trace-event JSON, one slice per delivered
// message (open it in chrome://tracing or Perfetto).
//
// By default every command drops everything before the trace's last stats-
// reset marker (end of warm-up), so the numbers line up with rc-sim's
// aggregate counters; --all keeps the warm-up transient in view.
//
// Exit status: 0 on success, 2 on bad usage, an unreadable trace, a line
// that is not a JSON object (a truncated or corrupt trace; named as
// path:line) or an unwritable output.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "sim/report.hpp"
#include "sim/telemetry.hpp"

using namespace rc;

namespace {

int usage(std::FILE* to) {
  std::fprintf(to,
               "usage: rc-trace summarize FILE [--all]\n"
               "       rc-trace diff A B [--all]\n"
               "       rc-trace export --chrome IN.jsonl OUT.json [--all]\n"
               "  --all   include events before the last stats reset "
               "(warm-up)\n");
  return to == stdout ? 0 : 2;
}

bool load_events(const std::string& path, std::vector<TelemetryEvent>* events,
                 std::vector<TelemetrySample>* samples) {
  std::string err;
  if (load_trace(path, events, samples, &err)) return true;
  std::fprintf(stderr, "rc-trace: %s\n", err.c_str());
  return false;
}

bool load_summary(const std::string& path, bool include_warmup,
                  TraceSummary* out) {
  std::vector<TelemetryEvent> events;
  std::vector<TelemetrySample> samples;
  if (!load_events(path, &events, &samples)) return false;
  *out = summarize_events(events, samples, include_warmup);
  return true;
}

int run_export(const std::string& in, const std::string& out,
               bool include_warmup) {
  std::vector<TelemetryEvent> events;
  if (!load_events(in, &events, nullptr)) return 2;
  std::ofstream os(out, std::ios::binary);
  const std::size_t slices = write_chrome_trace(events, include_warmup, os);
  os.close();
  if (!os) {
    std::fprintf(stderr, "rc-trace: cannot write '%s'\n", out.c_str());
    return 2;
  }
  std::fprintf(stderr, "rc-trace: wrote %zu slices to %s\n", slices,
               out.c_str());
  return 0;
}

std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

int run_diff(const std::string& pa, const std::string& pb,
             bool include_warmup) {
  TraceSummary a, b;
  if (!load_summary(pa, include_warmup, &a) ||
      !load_summary(pb, include_warmup, &b))
    return 2;

  Table t({"metric", "A", "B", "delta"});
  auto row_u = [&t](const char* name, std::uint64_t va, std::uint64_t vb) {
    const auto d = static_cast<long long>(vb) - static_cast<long long>(va);
    t.add_row({name, fmt_u(va), fmt_u(vb),
               (d >= 0 ? "+" : "") + std::to_string(d)});
  };
  auto row_f = [&t](const char* name, double va, double vb) {
    const double d = vb - va;
    t.add_row({name, Table::num(va), Table::num(vb),
               (d >= 0 ? "+" : "") + Table::num(d)});
  };
  row_u("events", a.events, b.events);
  for (int k = 0; k < TelemetryEvent::kNumKinds; ++k) {
    const auto kk = static_cast<TelemetryEvent::Kind>(k);
    if (kk == TelemetryEvent::Kind::StatsReset) continue;
    row_u(to_string(kk), a.kind_counts[k], b.kind_counts[k]);
  }
  for (int c = 0; c < kNumReplyCategories; ++c) {
    const auto cc = static_cast<ReplyCategory>(c);
    if (!reply_counted(cc)) continue;
    if (a.cat_counts[c] == 0 && b.cat_counts[c] == 0) continue;
    row_u((std::string("reply ") + to_string(cc)).c_str(), a.cat_counts[c],
          b.cat_counts[c]);
  }
  row_f("undo ratio", a.undo_ratio(), b.undo_ratio());
  row_f("time-to-first-bind mean", a.time_to_first_bind.mean(),
        b.time_to_first_bind.mean());
  row_f("circuit life mean (used)", a.lifetime_used.mean(),
        b.lifetime_used.mean());
  row_f("circuit life mean (undone)", a.lifetime_undone.mean(),
        b.lifetime_undone.mean());
  row_u("leaked circuits", a.leaked, b.leaked);
  if (a.samples || b.samples) {
    row_u("samples", a.samples, b.samples);
    row_f("mean live circuits", a.live_circuits.mean(),
          b.live_circuits.mean());
    row_f("mean buffered flits", a.buffered_flits.mean(),
          b.buffered_flits.mean());
  }
  t.print("trace diff: A=" + pa + "  B=" + pb);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd;
  std::vector<std::string> paths;
  bool include_warmup = false;
  bool chrome = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help")) return usage(stdout);
    if (!std::strcmp(argv[i], "--all")) {
      include_warmup = true;
      continue;
    }
    if (!std::strcmp(argv[i], "--chrome")) {
      chrome = true;
      continue;
    }
    if (cmd.empty())
      cmd = argv[i];
    else
      paths.push_back(argv[i]);
  }

  if (cmd == "summarize" && !chrome && paths.size() == 1) {
    TraceSummary s;
    if (!load_summary(paths[0], include_warmup, &s)) return 2;
    print_telemetry_summary(s, "trace " + paths[0] +
                                   (include_warmup ? " (full)" : ""));
    return 0;
  }
  if (cmd == "diff" && !chrome && paths.size() == 2)
    return run_diff(paths[0], paths[1], include_warmup);
  if (cmd == "export" && chrome && paths.size() == 2)
    return run_export(paths[0], paths[1], include_warmup);
  return usage(stderr);
}
