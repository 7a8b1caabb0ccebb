// rc-dse: resumable, crash-isolated design-space sweeps.
//
//   rc-dse --spec FILE --out DIR [options]
//     --spec FILE          sweep spec (JSON; see EXPERIMENTS.md), '-' = stdin
//     --out DIR            output directory: journal.jsonl, manifest.json,
//                          results.{jsonl,csv}, summary.json, points/p*/
//     --runner PATH        rc-sim-compatible binary (default: rc-sim next
//                          to this executable)
//     --jobs N             concurrent worker processes     (default 1)
//     --timeout S          wall-clock seconds per attempt  (default 0 = none)
//     --max-attempts N     attempts per crashing point     (default 2)
//     --backoff S          retry delay, scaled by attempt  (default 0.5)
//     --resume             continue an interrupted sweep in --out
//     --max-points N       stop scheduling after N newly terminal points
//     --no-warm-start      run every warm-up from cycle 0 (default: points
//                          sharing a warm-up phase run it once via a shared
//                          snapshot under --out/snapshots/; results are
//                          byte-identical either way)
//     --expand             print the expanded point list and exit
//     --compare BASELINE   after the sweep, compare summary.json with the
//                          baseline summary (perf regression check)
//     --verbose
//
// Exit: 0 all points ok; 3 some failed/timed out; 10 stopped early;
// 2 setup error. A failing --compare gate overrides these: 1 when a point
// ran more than 10% slower than in BASELINE, 2 when BASELINE is unreadable,
// malformed or shares no point with the sweep.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "sim/dse.hpp"

using namespace rc;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spec FILE --out DIR [--runner PATH] [--jobs N]\n"
               "          [--timeout S] [--max-attempts N] [--backoff S]\n"
               "          [--resume] [--max-points N] [--no-warm-start]\n"
               "          [--expand]\n"
               "          [--compare BASELINE]\n"
               "          [--verbose]\n",
               argv0);
  std::exit(2);
}

double need_double(const char* flag, const char* v) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || d < 0) {
    std::fprintf(stderr, "%s: \"%s\" is not a non-negative number\n", flag, v);
    std::exit(2);
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  DseOptions opt;
  std::string spec_path;
  std::string compare_baseline;
  opt.runner = sibling_binary(argv[0], "rc-sim");
  bool expand_only = false;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    auto need_int = [&](const char* flag, long long min_v) {
      return flag_ll(flag, need(flag), min_v);
    };
    if (!std::strcmp(argv[i], "--spec")) spec_path = need("--spec");
    else if (!std::strcmp(argv[i], "--out")) opt.out_dir = need("--out");
    else if (!std::strcmp(argv[i], "--runner")) opt.runner = need("--runner");
    else if (!std::strcmp(argv[i], "--jobs"))
      opt.jobs = static_cast<int>(need_int("--jobs", 1));
    else if (!std::strcmp(argv[i], "--timeout"))
      opt.timeout_s = need_double("--timeout", need("--timeout"));
    else if (!std::strcmp(argv[i], "--max-attempts"))
      opt.max_attempts = static_cast<int>(need_int("--max-attempts", 1));
    else if (!std::strcmp(argv[i], "--backoff"))
      opt.backoff_s = need_double("--backoff", need("--backoff"));
    else if (!std::strcmp(argv[i], "--resume")) opt.resume = true;
    else if (!std::strcmp(argv[i], "--max-points"))
      opt.max_points = need_int("--max-points", 0);
    else if (!std::strcmp(argv[i], "--no-warm-start")) opt.warm_start = false;
    else if (!std::strcmp(argv[i], "--expand")) expand_only = true;
    else if (!std::strcmp(argv[i], "--compare"))
      compare_baseline = need("--compare");
    else if (!std::strcmp(argv[i], "--verbose")) opt.verbose = true;
    else if (!std::strcmp(argv[i], "--help")) usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr, "--spec is required\n");
    usage(argv[0]);
  }

  std::string err, spec_text;
  if (!read_file(spec_path == "-" ? "/dev/stdin" : spec_path, &spec_text,
                 &err) ||
      !parse_sweep_spec(spec_text, &opt.points, &err)) {
    std::fprintf(stderr, "rc-dse: %s\n", err.c_str());
    return 2;
  }

  if (expand_only) {
    for (std::size_t i = 0; i < opt.points.size(); ++i)
      std::printf("%5zu  %s\n", i, point_key(opt.points[i]).c_str());
    std::fprintf(stderr, "[rc-dse] %zu points\n", opt.points.size());
    return 0;
  }

  if (opt.out_dir.empty()) {
    std::fprintf(stderr, "--out is required\n");
    usage(argv[0]);
  }

  DseOutcome oc;
  const int rc = run_sweep(opt, &oc, &err);
  if (rc == 2) {
    std::fprintf(stderr, "rc-dse: %s\n", err.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "[rc-dse] %lld points: %lld ok, %lld failed, %lld timeout "
               "(%lld from a prior run)%s\n",
               oc.total, oc.ok, oc.failed, oc.timeout, oc.skipped,
               oc.stopped_early ? "; stopped early" : "");
  if (oc.snapshots > 0 || oc.warm_loaded > 0)
    std::fprintf(stderr,
                 "[rc-dse] warm-start: %lld snapshot(s) written, %lld "
                 "point(s) resumed from one\n",
                 oc.snapshots, oc.warm_loaded);

  if (!compare_baseline.empty() && !oc.stopped_early) {
    std::string report;
    const int crc = compare_summaries(
        compare_baseline, opt.out_dir + "/summary.json", &report, &err);
    std::fputs(report.c_str(), stdout);
    if (crc != 0) {
      std::fprintf(stderr, "[rc-dse] perf gate failed: %s\n", err.c_str());
      return crc;
    }
  }
  return rc;
}
