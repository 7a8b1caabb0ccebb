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

std::string sibling_binary(const char* argv0, const char* name) {
  std::string self = argv0;
  const auto slash = self.find_last_of('/');
  if (slash == std::string::npos) return name;  // argv[0] via PATH; hope
  return self.substr(0, slash + 1) + name;
}

bool read_stream(std::FILE* f, std::string* out) {
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  return std::ferror(f) == 0;
}

bool read_spec(const std::string& path, std::string* out, std::string* err) {
  if (path == "-") {
    if (!read_stream(stdin, out)) {
      *err = "cannot read spec from stdin";
      return false;
    }
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    *err = "cannot open spec '" + path + "'";
    return false;
  }
  const bool ok = read_stream(f, out);
  std::fclose(f);
  if (!ok) *err = "cannot read spec '" + path + "'";
  return ok;
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

  std::string err;
  if (!read_spec(spec_path, &opt.spec_text, &err)) {
    std::fprintf(stderr, "rc-dse: %s\n", err.c_str());
    return 2;
  }

  if (expand_only) {
    std::vector<SweepPoint> points;
    if (!parse_sweep_spec(opt.spec_text, &points, &err)) {
      std::fprintf(stderr, "rc-dse: %s\n", err.c_str());
      return 2;
    }
    for (std::size_t i = 0; i < points.size(); ++i)
      std::printf("%5zu  %s\n", i, point_key(points[i]).c_str());
    std::fprintf(stderr, "[rc-dse] %zu points\n", points.size());
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
