// rc-dse sweep driver: spec expansion, journal durability, and the
// crash-isolated process scheduler (run against a scripted fake runner, so
// the suite needs no built binaries and stays in the fast tier).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "cpu/apps.hpp"
#include "sim/dse.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/snapshot.hpp"

using namespace rc;

namespace {

std::string test_dir(const std::string& leaf) {
  const std::string d = ::testing::TempDir() + "rc_dse_" + leaf + "_" +
                        std::to_string(::getpid());
  std::string cmd = "rm -rf '" + d + "' && mkdir -p '" + d + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// A /bin/sh rc-sim stand-in. It rebuilds the point's key from its flags
/// (generated from the axis table: an absent flag is -1, or no tag on an
/// omit_default row) and touches --save-state's file. Behavior keys off
/// --seed:
///   55  -> exit 2 when given --load-state (a snapshot the digest refused)
///   66  -> exit 1 (a crashing configuration)
///   77  -> sleep 30 (a hung configuration; the driver's timeout kills it)
///   else write a plausible result.json in rc-sim's record format (content
///   depends only on the point, so re-runs are byte-identical) and exit 0.
std::string write_fake_runner(const std::string& dir) {
  std::string vars, valued, switches, key;
  for (const PointAxis& a : point_axes()) {
    const std::string v = std::string("v_") + a.tag;
    vars += v + "=" + (a.omit_default ? "" : "-1") + "; ";
    const bool on = std::holds_alternative<bool SweepPoint::*>(a.field);
    if (a.flag != nullptr)  // shards has none: the record leaves it at -1
      (on ? switches : valued) += std::string("    ") + a.flag + ") " + v +
                                  (on ? "=1;;\n" : "=$a;;\n");
    key += a.omit_default ? "${" + v + ":+ " + a.tag + "=$" + v + "}"
                          : std::string(" ") + a.tag + "=$" + v;
  }
  const std::string path = dir + "/fake-rc-sim";
  write_file(path,
             "#!/bin/sh\n" + vars +
                 "out=result.json; load=; prev=\n"
                 "for a in \"$@\"; do\n"
                 "  case \"$prev\" in\n" + valued +
                 "    --point-out) out=$a;;\n"
                 "    --save-state) : > \"$a\";;\n"
                 "    --load-state) load=$a;;\n"
                 "  esac\n"
                 "  case \"$a\" in\n" + switches +
                 "  esac\n"
                 "  prev=$a\n"
                 "done\n"
                 "key=\"" + key + "\"\n"
                 "[ \"$v_seed\" = 55 ] && [ -n \"$load\" ] && exit 2\n"
                 "[ \"$v_seed\" = 66 ] && exit 1\n"
                 "[ \"$v_seed\" = 77 ] && sleep 30\n"
                 "printf '{\"key\":\"%s\",\"retired\":%s,\"net\":{"
                 "\"counters\":{\"ni_inject_flit\":42,\"reply_used\":2,"
                 "\"reply_failed\":3},\"accumulators\":{},\"histograms\":{}},"
                 "\"sys\":{\"counters\":{},\"accumulators\":{},"
                 "\"histograms\":{}},\"wall_s\":0.01}\\n' \"${key# }\" "
                 "\"$v_seed\" > \"$out\"\n");
  EXPECT_EQ(::chmod(path.c_str(), 0755), 0);
  return path;
}

std::vector<SweepPoint> expand(const std::string& spec) {
  std::vector<SweepPoint> pts;
  std::string err;
  EXPECT_TRUE(parse_sweep_spec(spec, &pts, &err)) << err;
  return pts;
}

DseOptions base_options(const std::string& out_dir,
                        const std::string& runner) {
  DseOptions o;
  o.out_dir = out_dir;
  o.runner = runner;
  o.jobs = 2;
  o.timeout_s = 0;
  o.max_attempts = 2;
  o.backoff_s = 0.01;
  return o;
}

// ---- JSON parser ----------------------------------------------------------

TEST(Json, ParsesDocumentsAndRejectsGarbage) {
  std::string err;
  auto v = parse_json("{\"a\": [1, 2.5, \"s\", true, null], \"b\": -3}", &err);
  ASSERT_TRUE(v.has_value()) << err;
  ASSERT_EQ(v->type, Json::Type::Obj);
  const Json* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 5u);
  EXPECT_EQ(a->arr[0].i, 1);
  EXPECT_DOUBLE_EQ(a->arr[1].d, 2.5);
  EXPECT_EQ(a->arr[2].s, "s");
  EXPECT_TRUE(a->arr[3].b);
  EXPECT_EQ(a->arr[4].type, Json::Type::Null);
  EXPECT_EQ(v->find("b")->i, -3);

  // Truncated and trailing-garbage documents never yield a partial value.
  EXPECT_FALSE(parse_json("{\"a\": [1, 2", &err).has_value());
  EXPECT_FALSE(parse_json("{\"a\": 1} extra", &err).has_value());
  EXPECT_FALSE(parse_json("", &err).has_value());
  EXPECT_FALSE(parse_json("{'a': 1}", &err).has_value());
}

// ---- spec expansion -------------------------------------------------------

TEST(SweepSpec, CrossProductOrderAndDefaults) {
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"preset\": [\"Baseline\", \"Complete\"], \"seed\": [1, 2, 3],"
      " \"warmup\": 100, \"cycles\": 400}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 6u);
  // seed is the innermost axis: Baseline/1,2,3 then Complete/1,2,3.
  EXPECT_EQ(pts[0].preset, "Baseline");
  EXPECT_EQ(pts[0].seed, 1u);
  EXPECT_EQ(pts[2].seed, 3u);
  EXPECT_EQ(pts[3].preset, "Complete");
  EXPECT_EQ(pts[3].seed, 1u);
  // Unswept axes keep their defaults; scalar knobs apply everywhere.
  for (const auto& p : pts) {
    EXPECT_EQ(p.app, "fft");
    EXPECT_EQ(p.warmup, 100u);
    EXPECT_EQ(p.cycles, 400u);
    EXPECT_EQ(p.circuits, -1);
  }
}

TEST(SweepSpec, ExcludesDropMatchingPoints) {
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"topology\": [\"mesh\", \"ring\"],"
      " \"preset\": [\"Baseline\", \"Fragmented\"],"
      " \"exclude\": [{\"topology\": \"ring\", \"preset\": \"Fragmented\"}]}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& p : pts)
    EXPECT_FALSE(p.topology == "ring" && p.preset == "Fragmented")
        << point_key(p);
}

TEST(SweepSpec, ExplicitPointsAppendAfterGrid) {
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"seed\": [1, 2], \"points\": ["
      "{\"preset\": \"Complete\", \"circuits\": 3, \"seed\": 9}]}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[2].preset, "Complete");
  EXPECT_EQ(pts[2].circuits, 3);
  EXPECT_EQ(pts[2].seed, 9u);
}

TEST(SweepSpec, PureExplicitPointSpecSkipsTheGrid) {
  // rc-fuzz --spec-out emits only "points": the default base point must not
  // sneak in from an empty cross-product.
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"warmup\": 100, \"cycles\": 300, \"points\": ["
      "{\"preset\": \"Baseline\", \"seed\": 7},"
      "{\"preset\": \"Complete\", \"seed\": 8}]}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].preset, "Baseline");
  EXPECT_EQ(pts[1].preset, "Complete");
  // A spec with no axes and no points is still the single default point.
  ASSERT_TRUE(parse_sweep_spec("{\"cycles\": 300}", &pts, &err)) << err;
  EXPECT_EQ(pts.size(), 1u);
}

TEST(SweepSpec, RejectsUnknownKeysAndBadValues) {
  std::vector<SweepPoint> pts;
  std::string err;
  EXPECT_FALSE(parse_sweep_spec("{\"presett\": \"Baseline\"}", &pts, &err));
  EXPECT_NE(err.find("presett"), std::string::npos);
  EXPECT_FALSE(parse_sweep_spec("{\"preset\": \"NoSuchPreset\"}", &pts, &err));
  EXPECT_NE(err.find("NoSuchPreset"), std::string::npos);
  EXPECT_FALSE(parse_sweep_spec("{\"app\": \"no_such_app\"}", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec("{\"mesh\": \"4by4\"}", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec("{\"vcs_req\": 0}", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec("{\"circuits\": 4294967297}", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec("{\"seed\": [1,", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec(
      "{\"exclude\": [{\"nope\": 1}]}", &pts, &err));
}

TEST(SweepSpec, PointKeyIsStableAndArgsFollowRcSimFlags) {
  SweepPoint p;
  p.mesh = "8x8";
  p.circuits = 3;
  p.shards = 2;
  p.seed = 5;
  const std::string key = point_key(p);
  EXPECT_NE(key.find("mesh=8x8"), std::string::npos);
  EXPECT_NE(key.find("circ=3"), std::string::npos);
  EXPECT_NE(key.find("seed=5"), std::string::npos);
  EXPECT_EQ(key, point_key(p)) << "key must be deterministic";

  const auto args = point_args(p);
  auto has = [&](const std::string& flag, const std::string& val) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i)
      if (args[i] == flag && args[i + 1] == val) return true;
    return false;
  };
  EXPECT_TRUE(has("--mesh", "8x8"));
  // the mesh carries the size; rc-sim's --cores is only its square shorthand
  for (const auto& a : args) EXPECT_NE(a, "--cores");
  EXPECT_TRUE(has("--circuits", "3"));
  EXPECT_TRUE(has("--seed", "5"));
  // shards ride RC_SHARDS in the child environment, not an rc-sim flag
  for (const auto& a : args) EXPECT_NE(a, "--shards");
  // default (-1) knobs are omitted entirely
  for (const auto& a : args) EXPECT_NE(a, "--buf-depth");
}

// ---- run points -----------------------------------------------------------

TEST(Point, KeysKeepTheBytesEarlierBuildsWrote) {
  // Journals written by earlier builds are matched on these exact bytes.
  SweepPoint p;
  p.mesh = "8x4";
  p.topology = "torus";
  p.mc_placement = "diagonal";
  p.preset = "Complete";
  p.app = "canneal";
  p.protocol = "sparse-msi";
  p.dir_pointers = 2;
  p.dir_sets = 64;
  p.dir_ways = 4;
  p.circuits = 3;
  p.slack = 1;
  p.buf_depth = 2;
  p.vcs_req = 2;
  p.vcs_rep = 3;
  p.shards = 4;
  p.seed = 12345;
  p.warmup = 700;
  p.cycles = 1900;
  EXPECT_EQ(point_key(p),
            "mesh=8x4 topo=torus mc=diagonal preset=Complete app=canneal "
            "proto=sparse-msi dirp=2 dirs=64 dirw=4 circ=3 slack=1 depth=2 "
            "vcsq=2 vcsr=3 shards=4 seed=12345 warmup=700 cycles=1900");
}

TEST(Point, LateRowsAddTagsOnlyWhenSet) {
  SweepPoint p;
  const std::string plain = point_key(p);
  EXPECT_EQ(plain.find("part="), std::string::npos) << plain;
  p.partition = 2;
  p.no_l1tol1 = true;
  p.undo_on_l2_miss = true;
  EXPECT_NE(point_key(p).find(" part=2 nol1l1=1 undo=1 "), std::string::npos)
      << point_key(p);
  EXPECT_NE(warm_group_hash(point_config(p)),
            warm_group_hash(point_config(SweepPoint{})));
  const std::vector<std::string> args = point_args(p);
  for (const char* a : {"--partition", "2", "--no-l1tol1", "--undo-on-l2-miss"})
    EXPECT_NE(std::find(args.begin(), args.end(), a), args.end()) << a;
  EXPECT_FALSE(point_flag_takes_value("--no-l1tol1"));
  EXPECT_TRUE(point_flag_takes_value("--partition"));
  const SystemConfig cfg = point_config(p);
  EXPECT_EQ(cfg.partition_side, 2);
  EXPECT_FALSE(cfg.cache.direct_l1_transfers);
  EXPECT_TRUE(cfg.noc.circuit.undo_on_l2_miss);
  std::vector<SweepPoint> pts;
  std::string err;
  EXPECT_FALSE(parse_sweep_spec("{\"no_l1tol1\": 1}", &pts, &err));
  EXPECT_NE(err.find("true or false"), std::string::npos) << err;
}

TEST(Point, ArgsRoundTripToTheSameConfig) {
  Rng rng(25);
  auto pick = [&](const std::vector<std::string>& v) {
    return v[rng.next_below(v.size())];
  };
  auto knob = [&](int min_v) {
    return rng.chance(0.3) ? -1 : min_v + static_cast<int>(rng.next_below(8));
  };
  for (int n = 0; n < 500; ++n) {
    SweepPoint p;
    p.mesh = std::to_string(1 + rng.next_below(16)) + "x" +
             std::to_string(1 + rng.next_below(16));
    p.topology = pick({"mesh", "torus", "ring", "cmesh"});
    p.mc_placement = pick({"edge-middle", "corner", "diagonal"});
    p.preset = pick(preset_names());
    p.app = pick(app_names());
    p.protocol = pick({"mesi", "sparse-msi"});
    p.dir_pointers = knob(1);
    p.dir_sets = knob(1);
    p.dir_ways = knob(1);
    p.circuits = knob(0);
    p.slack = knob(0);
    p.buf_depth = knob(1);
    p.vcs_req = knob(1);
    p.vcs_rep = knob(1);
    p.shards = knob(1);
    p.seed = rng.next_below(1ull << 62);
    p.warmup = rng.next_below(20'000);
    p.cycles = 1 + rng.next_below(50'000);
    p.partition = rng.chance(0.7) ? -1 : static_cast<int>(rng.next_below(5));
    p.no_l1tol1 = rng.chance(0.3);
    p.undo_on_l2_miss = rng.chance(0.3);
    std::string err;
    ASSERT_TRUE(validate_point(p, &err)) << err;

    // Start from rc-sim's own defaults, so every non-default axis has to
    // arrive through a flag.
    SweepPoint q;
    q.mesh = "8x8";
    q.warmup = 10'000;
    q.cycles = 30'000;
    const std::vector<std::string> args = point_args(p);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      const bool valued = point_flag_takes_value(flag);
      ASSERT_TRUE(!valued || i + 1 < args.size()) << flag;
      ASSERT_TRUE(set_point_flag(&q, flag, valued ? args[++i] : "", &err))
          << err;
    }
    q.shards = p.shards;  // rides RC_SHARDS in the child, not a flag
    ASSERT_EQ(point_key(q), point_key(p));
    ASSERT_EQ(config_digest(point_config(q)), config_digest(point_config(p)))
        << point_key(p);

    // The spec writer round-trips through rc-dse's parser the same way.
    std::vector<SweepPoint> pts;
    ASSERT_TRUE(parse_sweep_spec("{\"points\": [" + point_json(p) + "]}",
                                 &pts, &err))
        << err;
    ASSERT_EQ(pts.size(), 1u);
    ASSERT_EQ(point_key(pts[0]), point_key(p));
  }
}

TEST(Point, FlagsRejectBadNumbersAndValidationNamesBadNames) {
  SweepPoint p;
  std::string err;
  EXPECT_FALSE(set_point_flag(&p, "--circuits", "-1", &err));
  EXPECT_NE(err.find("--circuits"), std::string::npos);
  EXPECT_FALSE(set_point_flag(&p, "--cycles", "0", &err));
  EXPECT_FALSE(set_point_flag(&p, "--seed", "12x", &err));
  EXPECT_FALSE(is_point_flag("--shards"));  // shards has no rc-sim flag
  // A knob past int range is refused, not wrapped (4294967297 -> 1).
  EXPECT_FALSE(set_point_flag(&p, "--circuits", "4294967297", &err));
  EXPECT_EQ(p.circuits, -1);
  // The mesh must be canonical WxH: one spelling, one point_key.
  for (const char* mesh : {"4x4x", "04x4", " 4x4", "+4x4", "4x0"}) {
    ASSERT_TRUE(set_point_flag(&p, "--mesh", mesh, &err)) << err;
    EXPECT_FALSE(validate_point(p, &err)) << mesh;
    EXPECT_NE(err.find(mesh), std::string::npos) << err;
  }
}

// ---- point results ----------------------------------------------------------

TEST(PointResult, ARealRunRoundTripsExactly) {
  for (const char* preset : {"Baseline", "Complete_NoAck"}) {
    SweepPoint p;
    p.preset = preset;
    p.seed = 3;
    p.warmup = 300;
    p.cycles = 1500;
    const RunResult r = run_config(point_config(p), p.preset);
    ASSERT_FALSE(r.net.accumulators().empty()) << preset;
    const Histogram* h = r.net.find_hist("hist_req");
    ASSERT_TRUE(h != nullptr && h->count() > 0) << preset;

    RunResult back;
    std::string err;
    ASSERT_TRUE(
        read_point_result(point_result_json(r, p, 0.5), p, &back, &err))
        << err;
    EXPECT_TRUE(back.net == r.net) << preset;
    EXPECT_TRUE(back.sys == r.sys) << preset;
    EXPECT_EQ(back.retired, r.retired) << preset;
    EXPECT_EQ(back.ipc, r.ipc) << preset;
    EXPECT_EQ(back.energy_per_instr, r.energy_per_instr) << preset;
    EXPECT_EQ(back.cores, r.cores);
    EXPECT_EQ(back.cycles, r.cycles);
  }
}

TEST(PointResult, FractionalDoublesRoundTripExactly) {
  // A run's latency samples are whole cycles; these are not.
  StatSet s;
  for (double v : {1.0 / 3, 0.1, -0.0, 1e-300, 12345.678901234567})
    s.at(Acc::lat_net_req).add(v);
  s.at(Hist::hist_req).add(3.5);
  ++s.at(Ctr::l2_hits);
  StatSet back;
  std::string err;
  const std::optional<Json> j = parse_json(s.to_json(), &err);
  ASSERT_TRUE(j.has_value()) << err;
  ASSERT_TRUE(back.from_json(*j, &err)) << err;
  EXPECT_TRUE(back == s);
}

TEST(PointResult, MalformedRecordsAreRefused) {
  const SweepPoint p;
  const std::string key = "{\"key\":\"" + point_key(p) + "\",";
  const std::string empty = "{\"counters\":{},\"accumulators\":{},"
                            "\"histograms\":{}}";
  RunResult r;
  std::string err;
  ASSERT_TRUE(read_point_result(
      key + "\"retired\":7,\"net\":" + empty + ",\"sys\":" + empty + "}", p,
      &r, &err))
      << err;
  EXPECT_EQ(r.retired, 7u);
  for (const std::string& bad :
       {key + "\"retired\":7,\"net\":" + empty + "}",
        key + "\"retired\":7,\"net\":{\"counters\":{\"nope\":1},"
              "\"accumulators\":{},\"histograms\":{}},\"sys\":" + empty + "}",
        key + "\"retired\":7,\"net\":{\"counters\":{},\"accumulators\":{"
              "\"lat_net_req\":{\"n\":1}},\"histograms\":{}},\"sys\":" +
            empty + "}",
        key + "\"retired\":7,\"net\":",
        "{\"retired\":7,\"net\":" + empty + ",\"sys\":" + empty + "}"})
    EXPECT_FALSE(read_point_result(bad, p, &r, &err)) << bad;

  // A record of another point is refused, naming both keys.
  SweepPoint other = p;
  other.seed = 2;
  const std::string theirs =
      "{\"key\":\"" + point_key(other) + "\",\"retired\":7,\"net\":" +
      empty + ",\"sys\":" + empty + "}";
  EXPECT_FALSE(read_point_result(theirs, p, &r, &err));
  EXPECT_NE(err.find(point_key(other)), std::string::npos) << err;
  EXPECT_NE(err.find(point_key(p)), std::string::npos) << err;
}

// ---- journal --------------------------------------------------------------

TEST(Journal, RoundTripsRecords) {
  const std::string dir = test_dir("journal_rt");
  const std::string path = dir + "/journal.jsonl";
  JournalRecord a;
  a.id = 0;
  a.key = "mesh=4x4 seed=1";
  a.status = "ok";
  a.attempts = 1;
  a.wall_s = 0.25;
  a.maxrss_kb = 1234;
  JournalRecord b = a;
  b.id = 1;
  b.key = "mesh=4x4 seed=2";
  b.status = "failed";
  b.exit_code = 139;
  b.attempts = 2;
  write_file(path, journal_line(a) + "\n" + journal_line(b) + "\n");

  std::vector<JournalRecord> recs;
  bool torn = false;
  std::string err;
  ASSERT_TRUE(load_journal(path, &recs, &torn, &err)) << err;
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].key, a.key);
  EXPECT_EQ(recs[0].status, "ok");
  EXPECT_DOUBLE_EQ(recs[0].wall_s, 0.25);
  EXPECT_EQ(recs[0].maxrss_kb, 1234);
  EXPECT_EQ(recs[1].exit_code, 139);
  EXPECT_EQ(recs[1].attempts, 2);
}

TEST(Journal, ToleratesTornFinalLineOnly) {
  const std::string dir = test_dir("journal_torn");
  JournalRecord a;
  a.id = 0;
  a.key = "k1";
  a.status = "ok";
  const std::string good = journal_line(a) + "\n";

  // A crash mid-append leaves a partial final line with no newline: the
  // complete records load, the tail is reported torn.
  const std::string torn_path = dir + "/torn.jsonl";
  write_file(torn_path, good + "{\"id\":1,\"key\":\"k2\",\"sta");
  std::vector<JournalRecord> recs;
  bool torn = false;
  std::string err;
  ASSERT_TRUE(load_journal(torn_path, &recs, &torn, &err)) << err;
  EXPECT_TRUE(torn);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "k1");

  // Corruption *before* the end is real corruption, not a torn tail.
  const std::string corrupt_path = dir + "/corrupt.jsonl";
  write_file(corrupt_path, good + "garbage here\n" + good);
  EXPECT_FALSE(load_journal(corrupt_path, &recs, &torn, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  // Missing file = fresh sweep, empty journal.
  ASSERT_TRUE(load_journal(dir + "/nope.jsonl", &recs, &torn, &err)) << err;
  EXPECT_TRUE(recs.empty());
  EXPECT_FALSE(torn);
}

// ---- atomic writes --------------------------------------------------------

TEST(AtomicFile, CommitRenamesAndAbortLeavesNothing) {
  const std::string dir = test_dir("atomic");
  const std::string path = dir + "/out.txt";
  {
    AtomicFile f(path);
    ASSERT_NE(f.stream(), nullptr);
    std::fputs("partial", f.stream());
    // no commit: destructor must clean up the temporary
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "uncommitted file appeared";
  EXPECT_NE(std::system(("ls " + dir + "/*.tmp.* 2>/dev/null").c_str()), 0)
      << "abandoned temporary left behind";

  std::string err;
  ASSERT_TRUE(write_file_atomic(path, "hello\n", &err)) << err;
  EXPECT_EQ(slurp(path), "hello\n");
  ASSERT_TRUE(write_file_atomic(path, "replaced\n", &err)) << err;
  EXPECT_EQ(slurp(path), "replaced\n");
}

// ---- the sweep driver -----------------------------------------------------

TEST(RunSweep, IsolatesCrashesAndTimeouts) {
  const std::string dir = test_dir("sweep_crash");
  const std::string runner = write_fake_runner(dir);
  DseOptions o = base_options(dir + "/out", runner);
  o.timeout_s = 2.0;
  // seeds 66 (crash) and 77 (hang) are planted failures among healthy points
  o.points = expand("{\"seed\": [1, 2, 66, 77], \"cycles\": 100}");

  DseOutcome oc;
  std::string err;
  EXPECT_EQ(run_sweep(o, &oc, &err), 3) << err;
  EXPECT_EQ(oc.total, 4);
  EXPECT_EQ(oc.ok, 2);
  EXPECT_EQ(oc.failed, 1);
  EXPECT_EQ(oc.timeout, 1);
  EXPECT_FALSE(oc.stopped_early);

  std::vector<JournalRecord> recs;
  bool torn = false;
  ASSERT_TRUE(load_journal(o.out_dir + "/journal.jsonl", &recs, &torn, &err))
      << err;
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 4u);
  int crash_attempts = 0;
  for (const auto& r : recs) {
    if (r.key.find("seed=66") != std::string::npos) {
      EXPECT_EQ(r.status, "failed");
      crash_attempts = r.attempts;
      EXPECT_EQ(r.exit_code, 1);
    }
    if (r.key.find("seed=77") != std::string::npos) {
      EXPECT_EQ(r.status, "timeout");
      EXPECT_EQ(r.attempts, 1) << "timeouts must be terminal, not retried";
    }
  }
  EXPECT_EQ(crash_attempts, 2) << "crashes get the bounded retry";

  const std::string agg = slurp(o.out_dir + "/results.jsonl");
  EXPECT_NE(agg.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(agg.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(agg.find("\"status\":\"timeout\""), std::string::npos);
  EXPECT_NE(slurp(o.out_dir + "/manifest.json").find("\"complete\""),
            std::string::npos);
}

TEST(RunSweep, ResumeSkipsCompletedPoints) {
  const std::string dir = test_dir("sweep_resume");
  const std::string runner = write_fake_runner(dir);
  DseOptions o = base_options(dir + "/out", runner);
  o.points = expand("{\"seed\": [1, 2, 3]}");

  DseOutcome oc;
  std::string err;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.ok, 3);

  // Without --resume an existing journal is an error, not a silent restart.
  EXPECT_EQ(run_sweep(o, &oc, &err), 2);
  EXPECT_NE(err.find("journal"), std::string::npos);

  o.resume = true;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.skipped, 3) << "every point was already journaled";
  EXPECT_EQ(oc.ok, 3);

  // The journal must not have grown: nothing re-ran.
  std::vector<JournalRecord> recs;
  bool torn = false;
  ASSERT_TRUE(load_journal(o.out_dir + "/journal.jsonl", &recs, &torn, &err));
  EXPECT_EQ(recs.size(), 3u);
}

TEST(RunSweep, ResumeWithAChangedSpecIsRefused) {
  // Results are filed by index: a resume with the two presets swapped must
  // be refused, not print each preset's numbers on the other's row.
  const std::string dir = test_dir("sweep_changed");
  const std::string runner = write_fake_runner(dir);
  DseOptions o = base_options(dir + "/out", runner);
  o.points = expand(
      "{\"preset\": [\"Baseline\", \"Complete_NoAck\"], \"seed\": 3}");
  DseOutcome oc;
  std::string err;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  const std::string results = slurp(o.out_dir + "/results.jsonl");

  o.resume = true;
  o.points = expand(
      "{\"preset\": [\"Complete_NoAck\", \"Baseline\"], \"seed\": 3}");
  EXPECT_EQ(run_sweep(o, &oc, &err), 2);
  // The first mismatch in journal (completion) order is named.
  EXPECT_NE(err.find("which is not that point of this sweep"),
            std::string::npos)
      << err;
  EXPECT_EQ(slurp(o.out_dir + "/results.jsonl"), results)
      << "a refused resume must leave the aggregates alone";

  // Points appended after the journaled ones keep every index: that resume
  // runs only the new point.
  o.points = expand(
      "{\"preset\": [\"Baseline\", \"Complete_NoAck\", \"Complete\"], "
      "\"seed\": 3}");
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.skipped, 2);
  EXPECT_EQ(oc.ok, 3);
}

TEST(RunSweep, SpellingsOfOneWarmUpShareOneSnapshot) {
  // circuits 5 is Complete's own value: four points, one warm-up.
  const std::string dir = test_dir("sweep_spellings");
  const std::string runner = write_fake_runner(dir);
  DseOptions o = base_options(dir + "/out", runner);
  o.points = expand(
      "{\"preset\": \"Complete\", \"circuits\": [-1, 5], "
      "\"cycles\": [100, 200]}");
  DseOutcome oc;
  std::string err;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.snapshots, 1);
  EXPECT_EQ(oc.warm_loaded, 3);
  std::vector<std::string> names;
  for (const auto& e :
       std::filesystem::directory_iterator(o.out_dir + "/snapshots"))
    names.push_back(e.path().filename().string());
  EXPECT_EQ(names, std::vector<std::string>{warm_group_name(
                       warm_group_hash(point_config(o.points[0])))});
}

TEST(RunSweep, ARefusedSnapshotFallsBackToItsOwnWarmUp) {
  // Seed 55's loader exits 2, as rc-sim does when the digest check refuses
  // a snapshot; with one attempt per point it must still end ok.
  const std::string dir = test_dir("sweep_refused");
  const std::string runner = write_fake_runner(dir);
  DseOptions o = base_options(dir + "/out", runner);
  o.max_attempts = 1;
  o.points = expand("{\"seed\": 55, \"cycles\": [100, 200]}");
  DseOutcome oc;
  std::string err;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.ok, 2);
  EXPECT_EQ(oc.snapshots, 1);
  EXPECT_EQ(oc.warm_loaded, 0);
}

TEST(RunSweep, StoppedEarlyThenResumedMatchesUninterrupted) {
  const std::string dir = test_dir("sweep_stop");
  const std::string runner = write_fake_runner(dir);
  const std::string spec = "{\"seed\": [1, 2, 3, 4, 5]}";

  DseOptions a = base_options(dir + "/a", runner);
  a.points = expand(spec);
  a.max_points = 2;
  DseOutcome oc;
  std::string err;
  EXPECT_EQ(run_sweep(a, &oc, &err), 10) << err;
  EXPECT_TRUE(oc.stopped_early);
  EXPECT_NE(slurp(a.out_dir + "/manifest.json").find("\"stopped\""),
            std::string::npos);

  a.max_points = -1;
  a.resume = true;
  ASSERT_EQ(run_sweep(a, &oc, &err), 0) << err;
  EXPECT_FALSE(oc.stopped_early);
  EXPECT_EQ(oc.ok, 5);

  DseOptions b = base_options(dir + "/b", runner);
  b.points = expand(spec);
  ASSERT_EQ(run_sweep(b, &oc, &err), 0) << err;

  // The durability contract: interrupted-then-resumed aggregates are
  // byte-identical to an uninterrupted sweep (wall-clock lives only in the
  // journal and summary.json).
  EXPECT_EQ(slurp(a.out_dir + "/results.jsonl"),
            slurp(b.out_dir + "/results.jsonl"));
  EXPECT_EQ(slurp(a.out_dir + "/results.csv"),
            slurp(b.out_dir + "/results.csv"));
}

TEST(RunSweep, JournalSurvivesKill9MidSweep) {
  const std::string dir = test_dir("sweep_kill");
  const std::string runner = write_fake_runner(dir);
  const std::string spec = "{\"seed\": [1, 2, 3, 4, 5, 6, 7, 8]}";
  const std::string out_a = dir + "/a";

  // Drive the sweep in a forked child and SIGKILL it once the journal shows
  // progress — the real "operator hits the box" interruption, not a
  // cooperative shutdown.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    DseOptions o = base_options(out_a, runner);
    o.jobs = 1;
    o.points = expand(spec);
    DseOutcome oc;
    std::string err;
    run_sweep(o, &oc, &err);
    ::_exit(0);  // only reached if the kill loses the race entirely
  }
  const std::string journal = out_a + "/journal.jsonl";
  for (int i = 0; i < 2000; ++i) {
    std::string text = slurp(journal);
    int lines = 0;
    for (char c : text) lines += c == '\n';
    if (lines >= 2) break;
    ::usleep(5'000);
  }
  ::kill(child, SIGKILL);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);

  // Let any orphaned in-flight runner process finish writing and exit.
  ::usleep(200'000);

  // The journal must load: every fsync'd record intact, at worst one torn
  // tail (the atomic-rename manifest likewise either old or new, never
  // half-written — parse it to prove it).
  std::vector<JournalRecord> recs;
  bool torn = false;
  std::string err;
  ASSERT_TRUE(load_journal(journal, &recs, &torn, &err)) << err;
  EXPECT_GE(recs.size(), 1u);
  EXPECT_LT(recs.size(), 9u);
  std::string jerr;
  EXPECT_TRUE(parse_json(slurp(out_a + "/manifest.json"), &jerr).has_value())
      << jerr;

  DseOptions o = base_options(out_a, runner);
  o.points = expand(spec);
  o.resume = true;
  DseOutcome oc;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.ok, 8);
  EXPECT_GE(oc.skipped, 1);

  DseOptions b = base_options(dir + "/b", runner);
  b.points = expand(spec);
  ASSERT_EQ(run_sweep(b, &oc, &err), 0) << err;
  EXPECT_EQ(slurp(out_a + "/results.jsonl"),
            slurp(b.out_dir + "/results.jsonl"));
  EXPECT_EQ(slurp(out_a + "/results.csv"), slurp(b.out_dir + "/results.csv"));
}

TEST(RunSweep, SetupErrorsReturn2) {
  const std::string dir = test_dir("sweep_errors");
  const std::string runner = write_fake_runner(dir);
  DseOutcome oc;
  std::string err;

  // Points are validated before anything runs, however they were built.
  DseOptions bad_point = base_options(dir + "/o1", runner);
  bad_point.points.emplace_back();
  bad_point.points.back().preset = "NoSuchPreset";
  EXPECT_EQ(run_sweep(bad_point, &oc, &err), 2);
  EXPECT_NE(err.find("NoSuchPreset"), std::string::npos);

  DseOptions no_points = base_options(dir + "/o3", runner);
  EXPECT_EQ(run_sweep(no_points, &oc, &err), 2);

  DseOptions bad_runner = base_options(dir + "/o2", dir + "/missing-binary");
  bad_runner.points = expand("{\"seed\": 1}");
  EXPECT_EQ(run_sweep(bad_runner, &oc, &err), 2);
  EXPECT_NE(err.find("runner"), std::string::npos);
}

// ---- the perf gate: compare_summaries (rc-dse --compare) -------------------

/// A one-row summary in the format run_sweep writes.
std::string summary_with(const std::string& name, double cps) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n  \"results\": [\n    {\"name\": \"%s\", \"shards\": 1, "
                "\"wall_s\": 1.0, \"cycles\": 1000, \"cycles_per_sec\": %.0f}"
                "\n  ]\n}\n",
                name.c_str(), cps);
  return buf;
}

TEST(Compare, PassesSpeedupsAndFailsRegressions) {
  const std::string dir = test_dir("compare");
  write_file(dir + "/old.json", summary_with("a", 1000));
  write_file(dir + "/new.json", summary_with("a", 1300));
  write_file(dir + "/bad.json", summary_with("a", 800));
  write_file(dir + "/edge.json", summary_with("a", 901));
  std::string report, err;

  EXPECT_EQ(compare_summaries(dir + "/old.json", dir + "/new.json", &report,
                              &err), 0) << err;
  EXPECT_NE(report.find("1.30x"), std::string::npos) << report;
  EXPECT_NE(report.find("geomean speedup over 1 benchmark(s): 1.30x"),
            std::string::npos) << report;
  EXPECT_EQ(report.find("REGRESSION"), std::string::npos) << report;

  // The tolerance is a fixed 10%: 0.80x fails, 0.901x passes.
  EXPECT_EQ(compare_summaries(dir + "/old.json", dir + "/bad.json", &report,
                              &err), 1);
  EXPECT_NE(report.find("REGRESSION"), std::string::npos) << report;
  EXPECT_NE(err.find("regressed"), std::string::npos) << err;
  EXPECT_EQ(compare_summaries(dir + "/old.json", dir + "/edge.json", &report,
                              &err), 0) << err;
}

TEST(Compare, RejectsTruncatedAndGarbageBaselines) {
  const std::string dir = test_dir("compare_strict");
  const std::string good = summary_with("a", 1000);
  write_file(dir + "/good.json", good);
  // Cut off mid-record, missing the closing brace, and not a summary.
  write_file(dir + "/trunc.json", good.substr(0, good.find("\"wall_s\"") + 4));
  write_file(dir + "/noclose.json", good.substr(0, good.rfind('}')));
  write_file(dir + "/garbage.json", "not a report\n");
  write_file(dir + "/norows.json", "{\"results\": []}\n");
  std::string report, err;
  for (const char* f : {"trunc", "noclose", "garbage", "norows", "missing"}) {
    const std::string path = dir + "/" + f + ".json";
    EXPECT_EQ(compare_summaries(dir + "/good.json", path, &report, &err), 2)
        << f;
    EXPECT_NE(err.find(path), std::string::npos) << f << ": " << err;
    EXPECT_EQ(compare_summaries(path, dir + "/good.json", &report, &err), 2)
        << f;
  }
  EXPECT_EQ(compare_summaries(dir + "/good.json", dir + "/good.json", &report,
                              &err), 0) << err;
}

TEST(Compare, NoSharedRowIsAnInputError) {
  const std::string dir = test_dir("compare_nomatch");
  write_file(dir + "/a.json", summary_with("a", 1000));
  write_file(dir + "/b.json", summary_with("b", 1000));
  std::string report, err;
  EXPECT_EQ(compare_summaries(dir + "/a.json", dir + "/b.json", &report, &err),
            2);
  EXPECT_NE(err.find("no (name, shards) row"), std::string::npos) << err;
}

}  // namespace
