// Telemetry subsystem tests (sim/telemetry.hpp, RC_TELEMETRY):
//  * attach/detach — env gating, observer chaining with the Validator, and
//    passivity: a traced run's simulation statistics are bit-identical to an
//    untraced run's,
//  * determinism — the exported trace is byte-identical across
//    RC_SHARDS=1/2/4 and across tick modes (activity-driven vs
//    RC_VERIFY_TICKS),
//  * round trip — write() -> load_trace() -> summarize_events() reproduces
//    the in-memory events, samples, and digest (the rc-trace CLI is a thin
//    wrapper over exactly these three calls),
//  * aggregate agreement — the post-reset trace digest reproduces the
//    Fig. 6 reply-category counters and the reservation/undo counters kept
//    by the fabric's StatSets,
//  * CSV export and sampling cadence,
//  * Chrome trace-event export (rc-trace export --chrome): one slice per
//    delivered message, paired across a scrounger's re-injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/synthetic.hpp"
#include "sim/system.hpp"
#include "sim/telemetry.hpp"
#include "sim/validator.hpp"

namespace rc {
namespace {

/// Sets (or clears, for nullptr) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    apply(value);
  }
  ~ScopedEnv() { apply(saved_.empty() ? nullptr : saved_.c_str()); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void apply(const char* value) {
    if (value)
      setenv(name_.c_str(), value, 1);
    else
      unsetenv(name_.c_str());
  }
  std::string name_;
  std::string saved_;
};

std::string tmp_path(const std::string& leaf) {
  return ::testing::TempDir() + "rc_telemetry_" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SystemConfig small_cfg(const std::string& preset = "Complete",
                       int shards = 1) {
  SystemConfig cfg = make_system_config(16, preset, "fft", /*seed=*/3);
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 2'000;
  cfg.shards = shards;
  return cfg;
}

// ---------------------------------------------------------- attach / detach

TEST(TelemetryAttach, NotAttachedWhenEnvUnset) {
  ScopedEnv env("RC_TELEMETRY", nullptr);
  EXPECT_FALSE(Telemetry::enabled_by_env());
  System sys(small_cfg());
  EXPECT_EQ(sys.telemetry(), nullptr);
}

TEST(TelemetryAttach, EmptyPathMeansDisabled) {
  ScopedEnv env("RC_TELEMETRY", "");
  EXPECT_FALSE(Telemetry::enabled_by_env());
  System sys(small_cfg());
  EXPECT_EQ(sys.telemetry(), nullptr);
}

TEST(TelemetryAttach, AttachesToSystemAndSynthetic) {
  const std::string path = tmp_path("attach.jsonl");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  ScopedEnv every("RC_SAMPLE_EVERY", "50");
  {
    System sys(small_cfg());
    ASSERT_NE(sys.telemetry(), nullptr);
    EXPECT_EQ(sys.telemetry()->path(), path);
    EXPECT_EQ(sys.telemetry()->sample_every(), 50u);
  }
  {
    SyntheticTraffic t(small_cfg().noc, 0.05, 7, /*seed=*/1, /*shards=*/1);
    ASSERT_NE(t.telemetry(), nullptr);
  }
  std::remove(path.c_str());
}

TEST(TelemetryAttach, ChainsAndRestoresDisplacedObserver) {
  // Counting stand-in for the Validator: every forwarded hook must reach it
  // while telemetry is attached, and detaching telemetry must restore it.
  struct Counter final : NocObserver {
    int injected = 0, delivered = 0, buffered = 0, cycles = 0, inserts = 0;
    void on_message_injected(NodeId, const Message&, Cycle) override {
      ++injected;
    }
    void on_message_delivered(NodeId, const Message&, Cycle) override {
      ++delivered;
    }
    void on_flit_buffered(NodeId, Port, const Flit&, Cycle) override {
      ++buffered;
    }
    void on_network_cycle(Cycle) override { ++cycles; }
    void on_circuit_inserted(NodeId, Port, const CircuitEntry&,
                             Cycle) override {
      ++inserts;
    }
  } counter;

  Network net(small_cfg().noc);
  net.set_observer(&counter);
  {
    Telemetry t(&net, tmp_path("chain.jsonl"), /*sample_every=*/0);
    EXPECT_EQ(net.observer(), &t);
    Message m;
    m.id = 7;
    m.dest = 3;
    Flit f;
    CircuitEntry e;
    t.on_message_injected(0, m, 10);
    t.on_message_delivered(3, m, 20);
    t.on_flit_buffered(1, 2, f, 15);
    t.on_circuit_inserted(1, 2, e, 15);
    t.on_network_cycle(20);
    EXPECT_EQ(counter.injected, 1);
    EXPECT_EQ(counter.delivered, 1);
    EXPECT_EQ(counter.buffered, 1);
    EXPECT_EQ(counter.inserts, 1);
    EXPECT_EQ(counter.cycles, 1);
    // Telemetry recorded them too (flit buffering is sampled, not traced).
    EXPECT_EQ(t.events().size(), 3u);
    t.write();  // mark written so the dtor skips the backstop export
  }
  EXPECT_EQ(net.observer(), &counter);
  std::remove(tmp_path("chain.jsonl").c_str());
}

TEST(TelemetryAttach, ComposesWithValidator) {
  const std::string path = tmp_path("with_check.jsonl");
  ScopedEnv check("RC_CHECK", "1");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  System sys(small_cfg());
  ASSERT_NE(sys.validator(), nullptr);
  ASSERT_NE(sys.telemetry(), nullptr);
  // Telemetry is the network's observer and forwards to the Validator.
  EXPECT_EQ(sys.network().observer(), sys.telemetry());
  sys.run();  // the Validator's per-cycle checks all still run
  EXPECT_GT(sys.telemetry()->events().size(), 0u);
  std::remove(path.c_str());
}

TEST(TelemetryPassivity, TracedRunStatsBitIdentical) {
  // Attaching the trace collector must not perturb the simulation: every
  // counter, accumulator and histogram of a traced run compares bitwise
  // equal to the untraced run's.
  RunResult plain;
  {
    ScopedEnv env("RC_TELEMETRY", nullptr);
    plain = run_config(small_cfg(), "plain");
  }
  const std::string path = tmp_path("passive.jsonl");
  RunResult traced;
  {
    ScopedEnv env("RC_TELEMETRY", path.c_str());
    ScopedEnv every("RC_SAMPLE_EVERY", "100");
    traced = run_config(small_cfg(), "traced");
  }
  EXPECT_EQ(plain.retired, traced.retired);
  EXPECT_EQ(plain.ipc, traced.ipc);
  EXPECT_EQ(plain.energy_per_instr, traced.energy_per_instr);
  EXPECT_TRUE(plain.net == traced.net);
  EXPECT_TRUE(plain.sys == traced.sys);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- determinism

TEST(TelemetryDeterminism, TraceByteIdenticalAcrossShards) {
  std::string first;
  for (int shards : {1, 2, 4}) {
    const std::string path =
        tmp_path("shards" + std::to_string(shards) + ".jsonl");
    ScopedEnv env("RC_TELEMETRY", path.c_str());
    ScopedEnv every("RC_SAMPLE_EVERY", "50");
    run_config(small_cfg("Complete", shards), "shards");
    const std::string trace = slurp(path);
    EXPECT_FALSE(trace.empty());
    if (shards == 1)
      first = trace;
    else
      EXPECT_EQ(trace, first) << "shards=" << shards;
    std::remove(path.c_str());
  }
}

TEST(TelemetryDeterminism, TraceByteIdenticalAcrossTickModes) {
  auto run_traced = [](const char* verify, const std::string& leaf) {
    const std::string path = tmp_path(leaf);
    ScopedEnv env("RC_TELEMETRY", path.c_str());
    ScopedEnv every("RC_SAMPLE_EVERY", "50");
    ScopedEnv mode("RC_VERIFY_TICKS", verify);
    run_config(small_cfg(), "tickmode");
    const std::string trace = slurp(path);
    std::remove(path.c_str());
    return trace;
  };
  const std::string activity = run_traced("0", "tick_activity.jsonl");
  const std::string verify = run_traced("1", "tick_verify.jsonl");
  EXPECT_FALSE(activity.empty());
  EXPECT_EQ(activity, verify);
}

// -------------------------------------------------------------- round trip

bool events_equal(const TelemetryEvent& a, const TelemetryEvent& b) {
  return a.kind == b.kind && a.cycle == b.cycle && a.node == b.node &&
         a.port == b.port && a.vc == b.vc && a.dest == b.dest &&
         a.addr == b.addr && a.owner == b.owner && a.msg == b.msg &&
         a.cat == b.cat;
}

TEST(TelemetryRoundTrip, WriteLoadSummarizeReproducesInMemoryData) {
  const std::string path = tmp_path("roundtrip.jsonl");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  ScopedEnv every("RC_SAMPLE_EVERY", "100");
  System sys(small_cfg());
  sys.run();
  Telemetry* t = sys.telemetry();
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->write());

  std::vector<TelemetryEvent> events;
  std::vector<TelemetrySample> samples;
  std::string err;
  ASSERT_TRUE(load_trace(path, &events, &samples, &err)) << err;

  ASSERT_EQ(events.size(), t->events().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    // The export interleaves events and samples in cycle order but never
    // reorders events among themselves, so index-wise comparison is exact.
    EXPECT_TRUE(events_equal(events[i], t->events()[i])) << "event " << i;
  }
  ASSERT_EQ(samples.size(), t->samples().size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TelemetrySample &a = samples[i], &b = t->samples()[i];
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.reserved, b.reserved);
    EXPECT_EQ(a.undone, b.undone);
    EXPECT_EQ(a.scrounged, b.scrounged);
    EXPECT_EQ(a.buffered_flits, b.buffered_flits);
    EXPECT_EQ(a.live_circuits, b.live_circuits);
  }

  // The digest of the loaded trace matches the digest of the live data —
  // rc-trace summarize prints exactly this structure.
  for (bool warmup : {false, true}) {
    const TraceSummary live = summarize_events(t->events(), t->samples(),
                                               warmup);
    const TraceSummary loaded = summarize_events(events, samples, warmup);
    EXPECT_EQ(live.events, loaded.events);
    for (int k = 0; k < TelemetryEvent::kNumKinds; ++k)
      EXPECT_EQ(live.kind_counts[k], loaded.kind_counts[k]) << "kind " << k;
    for (int c = 0; c < kNumReplyCategories; ++c)
      EXPECT_EQ(live.cat_counts[c], loaded.cat_counts[c]) << "cat " << c;
    EXPECT_EQ(live.first_cycle, loaded.first_cycle);
    EXPECT_EQ(live.last_cycle, loaded.last_cycle);
    EXPECT_EQ(live.resets, loaded.resets);
    EXPECT_EQ(live.leaked, loaded.leaked);
    EXPECT_EQ(live.samples, loaded.samples);
    EXPECT_DOUBLE_EQ(live.undo_ratio(), loaded.undo_ratio());
    EXPECT_DOUBLE_EQ(live.lifetime_used.mean(), loaded.lifetime_used.mean());
    EXPECT_DOUBLE_EQ(live.time_to_first_bind.mean(),
                     loaded.time_to_first_bind.mean());
  }
  std::remove(path.c_str());
}

TEST(TelemetryRoundTrip, LoadTraceRejectsMissingFile) {
  std::string err;
  EXPECT_FALSE(load_trace(tmp_path("nonexistent.jsonl"), nullptr, nullptr,
                          &err));
  EXPECT_FALSE(err.empty());
}

TEST(TelemetryRoundTrip, UnknownLinesAreSkipped) {
  const std::string path = tmp_path("mixed_schema.jsonl");
  {
    std::ofstream out(path);
    out << "{\"e\":\"header\",\"v\":1,\"sample_every\":0}\n"
        << "not json at all\n"
        << "{\"e\":\"from_the_future\",\"c\":5}\n"
        << "{\"e\":\"inject\",\"c\":4,\"n\":2,\"m\":9,\"d\":6}\n";
  }
  std::vector<TelemetryEvent> events;
  std::vector<TelemetrySample> samples;
  std::string err;
  ASSERT_TRUE(load_trace(path, &events, &samples, &err)) << err;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TelemetryEvent::Kind::Inject);
  EXPECT_EQ(events[0].cycle, 4u);
  EXPECT_EQ(events[0].node, 2);
  EXPECT_EQ(events[0].msg, 9u);
  EXPECT_EQ(events[0].dest, 6);
  EXPECT_TRUE(samples.empty());
  std::remove(path.c_str());
}

// ------------------------------------------------- aggregate-counter match

TEST(TelemetrySummary, ReproducesFig6CategoryCounters) {
  // The acceptance bar: the post-reset trace digest must reproduce the
  // Fig. 6 reply-category counters the NIs keep — same classifier, same
  // reset point, so the counts are equal, not merely close.
  const std::string path = tmp_path("fig6.jsonl");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  SystemConfig cfg = small_cfg();
  System sys(cfg);
  sys.run();
  Telemetry* t = sys.telemetry();
  ASSERT_NE(t, nullptr);
  const TraceSummary s =
      summarize_events(t->events(), t->samples(), /*include_warmup=*/false);
  const StatSet net = sys.network().merged_stats();

  std::uint64_t classified = 0;
  for (int c = 0; c < kNumReplyCategories; ++c) {
    const auto cc = static_cast<ReplyCategory>(c);
    if (reply_counted(cc)) {
      const std::string_view name = stat_name(reply_stat(cc));
      EXPECT_EQ(s.cat_counts[c], net.counter_value(name)) << name;
      classified += net.counter_value(name);
    }
  }
  EXPECT_GT(classified, 0u);  // the run actually exercised circuits
  EXPECT_EQ(s.classified_replies(), classified);

  // Reservation / undo / teardown events match the table-side counters.
  EXPECT_EQ(s.kind(TelemetryEvent::Kind::Reserve),
            net.counter_value("circ_reservations"));
  EXPECT_EQ(s.kind(TelemetryEvent::Kind::Undo),
            net.counter_value("circ_entries_undone"));
  EXPECT_EQ(s.resets, 1u);  // one warm-up boundary
  std::remove(path.c_str());
}

TEST(TelemetrySummary, WarmupViewIncludesPreResetEvents) {
  const std::string path = tmp_path("warmup.jsonl");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  System sys(small_cfg());
  sys.run();
  Telemetry* t = sys.telemetry();
  ASSERT_NE(t, nullptr);
  const TraceSummary post =
      summarize_events(t->events(), t->samples(), /*include_warmup=*/false);
  const TraceSummary full =
      summarize_events(t->events(), t->samples(), /*include_warmup=*/true);
  EXPECT_GT(full.events, post.events);  // warm-up traffic exists
  EXPECT_LT(full.first_cycle, post.first_cycle);
  EXPECT_EQ(full.resets, post.resets);
  std::remove(path.c_str());
}

// ------------------------------------------------------- sampling and CSV

TEST(TelemetrySampling, CadenceAndWindowSums) {
  const std::string path = tmp_path("cadence.jsonl");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  ScopedEnv every("RC_SAMPLE_EVERY", "100");
  SystemConfig cfg = small_cfg();
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1'000;
  System sys(cfg);
  sys.run();
  Telemetry* t = sys.telemetry();
  ASSERT_NE(t, nullptr);
  const auto& samples = t->samples();
  ASSERT_EQ(samples.size(), 10u);
  std::uint64_t injected = 0, delivered = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].cycle, 100 * (i + 1) - 1);  // windows end at 99, 199…
    EXPECT_EQ(samples[i].window, 100u);
    injected += samples[i].injected;
    delivered += samples[i].delivered;
  }
  // Window counts partition the event stream.
  const TraceSummary s =
      summarize_events(t->events(), t->samples(), /*include_warmup=*/true);
  EXPECT_EQ(injected, s.kind(TelemetryEvent::Kind::Inject));
  EXPECT_EQ(delivered, s.kind(TelemetryEvent::Kind::Deliver));
  std::remove(path.c_str());
}

TEST(TelemetrySampling, DisabledWithoutSampleEvery) {
  const std::string path = tmp_path("nosamples.jsonl");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  ScopedEnv every("RC_SAMPLE_EVERY", nullptr);
  System sys(small_cfg());
  sys.run();
  ASSERT_NE(sys.telemetry(), nullptr);
  EXPECT_TRUE(sys.telemetry()->samples().empty());
  EXPECT_GT(sys.telemetry()->events().size(), 0u);
  std::remove(path.c_str());
}

TEST(TelemetryCsv, SamplesOnlyExport) {
  const std::string path = tmp_path("series.csv");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  ScopedEnv every("RC_SAMPLE_EVERY", "100");
  System sys(small_cfg());
  sys.run();
  ASSERT_NE(sys.telemetry(), nullptr);
  ASSERT_TRUE(sys.telemetry()->write());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "cycle,window,injected,delivered,reserved,undone,scrounged,"
            "buffered_flits,live_circuits");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, sys.telemetry()->samples().size());
  EXPECT_GT(rows, 0u);
  std::remove(path.c_str());
}

TEST(TelemetryExport, WriteFailureIsReportedNotFatal) {
  const std::string path = ::testing::TempDir() + "no_such_dir/t.jsonl";
  Network net(small_cfg().noc);
  Telemetry t(&net, path, 0);
  EXPECT_FALSE(t.write());
}

// ----------------------------------------------------------- chrome export

TEST(ChromeExport, RecordsAndSerializes) {
  const std::string path = tmp_path("chrome.jsonl");
  ScopedEnv env("RC_TELEMETRY", path.c_str());
  std::ostringstream os;
  std::size_t slices = 0;
  {
    System sys(small_cfg("SlackDelay1_NoAck"));
    sys.run();
    ASSERT_NE(sys.telemetry(), nullptr);
    slices = write_chrome_trace(sys.telemetry()->events(), false, os);
  }
  EXPECT_GT(slices, 100u);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"used\""), std::string::npos);
  // Untyped traces put every slice in one process.
  EXPECT_EQ(json.find("\"pid\":1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ChromeExport, WritesFileFromLoadedTrace) {
  // The rc-trace path: a trace file on disk, loaded and exported to a
  // Chrome JSON file. Typed traces name slices by message type and split
  // them into one process per virtual network.
  const std::string path = tmp_path("chrome_typed.jsonl");
  const std::string out = tmp_path("chrome_typed.json");
  {
    ScopedEnv env("RC_TELEMETRY", path.c_str());
    ScopedEnv types("RC_TELEMETRY_TYPES", "1");
    SystemConfig cfg = small_cfg("SlackDelay1_NoAck");
    cfg.measure_cycles = 1'500;
    run_config(cfg, "chrome");
  }
  std::vector<TelemetryEvent> events;
  std::string err;
  ASSERT_TRUE(load_trace(path, &events, nullptr, &err)) << err;
  std::size_t post_reset = 0, with_warmup = 0;
  {
    std::ofstream f(out);
    post_reset = write_chrome_trace(events, false, f);
    std::ostringstream all;
    with_warmup = write_chrome_trace(events, true, all);
  }
  EXPECT_GT(with_warmup, post_reset);
  const std::string json = slurp(out);
  EXPECT_GT(json.size(), 1000u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"L2Reply\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  std::remove(path.c_str());
  std::remove(out.c_str());
}

TEST(ChromeExport, PairsEachDeliveryWithLatestOpenInjection) {
  // A scrounger (§4.5) is delivered at an intermediate NI and re-injected
  // under the same id; each leg becomes its own slice. A delivery whose
  // injection precedes the window (here: the stats reset) is dropped.
  auto event = [](TelemetryEvent::Kind k, Cycle c, NodeId n,
                  std::uint64_t msg, ReplyCategory cat) {
    TelemetryEvent ev;
    ev.kind = k;
    ev.cycle = c;
    ev.node = n;
    ev.msg = msg;
    ev.cat = cat;
    return ev;
  };
  using K = TelemetryEvent::Kind;
  using C = ReplyCategory;
  const std::vector<TelemetryEvent> events = {
      event(K::Inject, 3, 6, 5, C::NotReply),
      event(K::StatsReset, 5, kInvalidNode, 0, C::NotReply),
      event(K::Inject, 10, 1, 7, C::NotReply),
      event(K::Deliver, 12, 2, 5, C::NotReply),
      event(K::Deliver, 20, 4, 7, C::ScroungeHop),
      event(K::Inject, 22, 4, 7, C::NotReply),
      event(K::Deliver, 30, 9, 7, C::Scrounged),
  };
  std::ostringstream os;
  EXPECT_EQ(write_chrome_trace(events, false, os), 2u);
  EXPECT_EQ(os.str(),
            "[\n"
            R"({"name":"scrounge_hop","ph":"X","ts":10,"dur":10,"pid":0,)"
            R"("tid":1,"args":{"id":7,"dest":4,"cat":"scrounge_hop"}},)"
            "\n"
            R"({"name":"scrounged","ph":"X","ts":22,"dur":8,"pid":0,)"
            R"("tid":4,"args":{"id":7,"dest":9,"cat":"scrounged"}})"
            "\n]\n");
  std::ostringstream all;
  EXPECT_EQ(write_chrome_trace(events, true, all), 3u);
}

}  // namespace
}  // namespace rc
