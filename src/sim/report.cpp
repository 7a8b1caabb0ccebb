#include "sim/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/atomic_file.hpp"
#include "common/config.hpp"
#include "sim/telemetry.hpp"

namespace rc {

namespace {

/// One JSONL line per record, fixed key order, decimal integers only —
/// trivially greppable and byte-stable across runs of the same simulation.
std::string event_line(const TelemetryEvent& ev) {
  char buf[256];
  int n = std::snprintf(buf, sizeof buf, "{\"e\":\"%s\",\"c\":%llu",
                        to_string(ev.kind),
                        static_cast<unsigned long long>(ev.cycle));
  auto add = [&](const char* fmt, auto value) {
    n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n), fmt,
                       value);
  };
  switch (ev.kind) {
    case TelemetryEvent::Kind::Inject:
      add(",\"n\":%d", ev.node);
      add(",\"m\":%llu", static_cast<unsigned long long>(ev.msg));
      add(",\"d\":%d", ev.dest);
      if (ev.mtype >= 0)
        add(",\"t\":\"%s\"", to_string(static_cast<MsgType>(ev.mtype)));
      break;
    case TelemetryEvent::Kind::Deliver:
      add(",\"n\":%d", ev.node);
      add(",\"m\":%llu", static_cast<unsigned long long>(ev.msg));
      add(",\"cat\":\"%s\"", to_string(ev.cat));
      if (ev.mtype >= 0)
        add(",\"t\":\"%s\"", to_string(static_cast<MsgType>(ev.mtype)));
      break;
    case TelemetryEvent::Kind::UndoLaunch:
      add(",\"n\":%d", ev.node);
      add(",\"d\":%d", ev.dest);
      add(",\"a\":%llu", static_cast<unsigned long long>(ev.addr));
      add(",\"o\":%llu", static_cast<unsigned long long>(ev.owner));
      break;
    case TelemetryEvent::Kind::StatsReset:
      break;
    default:  // table-entry lifecycle: full circuit identity
      add(",\"n\":%d", ev.node);
      add(",\"p\":%d", static_cast<int>(ev.port));
      add(",\"vc\":%d", static_cast<int>(ev.vc));
      add(",\"d\":%d", ev.dest);
      add(",\"a\":%llu", static_cast<unsigned long long>(ev.addr));
      add(",\"o\":%llu", static_cast<unsigned long long>(ev.owner));
      if (ev.msg != 0)
        add(",\"m\":%llu", static_cast<unsigned long long>(ev.msg));
      break;
  }
  add("%s", "}");
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string sample_line(const TelemetrySample& s) {
  char buf[256];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"e\":\"sample\",\"c\":%llu,\"w\":%llu,\"inj\":%llu,\"dlv\":%llu,"
      "\"res\":%llu,\"undo\":%llu,\"scr\":%llu,\"buf\":%llu,\"circ\":%llu}",
      static_cast<unsigned long long>(s.cycle),
      static_cast<unsigned long long>(s.window),
      static_cast<unsigned long long>(s.injected),
      static_cast<unsigned long long>(s.delivered),
      static_cast<unsigned long long>(s.reserved),
      static_cast<unsigned long long>(s.undone),
      static_cast<unsigned long long>(s.scrounged),
      static_cast<unsigned long long>(s.buffered_flits),
      static_cast<unsigned long long>(s.live_circuits));
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace

bool write_telemetry_file(const Telemetry& t, const std::string& path,
                          std::string* err) {
  // Written via temp-then-rename: a crash (or a concurrent writer racing on
  // the same path) can never leave a half-written trace under the final
  // name — readers see the old complete file or the new complete file.
  AtomicFile out(path);
  std::FILE* f = out.stream();
  if (!f) {
    if (err) *err = "cannot write trace '" + path + "'";
    return false;
  }
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    std::fputs(
        "cycle,window,injected,delivered,reserved,undone,scrounged,"
        "buffered_flits,live_circuits\n",
        f);
    for (const TelemetrySample& s : t.samples())
      std::fprintf(f, "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
                   static_cast<unsigned long long>(s.cycle),
                   static_cast<unsigned long long>(s.window),
                   static_cast<unsigned long long>(s.injected),
                   static_cast<unsigned long long>(s.delivered),
                   static_cast<unsigned long long>(s.reserved),
                   static_cast<unsigned long long>(s.undone),
                   static_cast<unsigned long long>(s.scrounged),
                   static_cast<unsigned long long>(s.buffered_flits),
                   static_cast<unsigned long long>(s.live_circuits));
  } else {
    // Non-default fabric labels ride in the header so digests across the
    // topology axis stay attributable; on the default mesh the line is
    // byte-identical to what earlier versions wrote.
    const NocConfig& noc = t.noc_config();
    std::string labels;
    if (noc.topology != TopologyKind::Mesh)
      labels += std::string(",\"topology\":\"") + to_string(noc.topology) +
                "\"";
    if (noc.mc_placement != McPlacement::EdgeMiddle)
      labels += std::string(",\"mc\":\"") + to_string(noc.mc_placement) + "\"";
    std::fprintf(f, "{\"e\":\"header\",\"v\":1,\"sample_every\":%llu%s}\n",
                 static_cast<unsigned long long>(t.sample_every()),
                 labels.c_str());
    // Events and samples interleaved in cycle order; a sample summarizes the
    // window *ending* at its cycle, so on a tie the events come first.
    const auto& evs = t.events();
    const auto& smps = t.samples();
    std::size_t e = 0, s = 0;
    while (e < evs.size() || s < smps.size()) {
      if (s >= smps.size() ||
          (e < evs.size() && evs[e].cycle <= smps[s].cycle)) {
        std::fprintf(f, "%s\n", event_line(evs[e++]).c_str());
      } else {
        std::fprintf(f, "%s\n", sample_line(smps[s++]).c_str());
      }
    }
  }
  return out.commit(err);  // checks ferror + flush + fsync + close + rename
}

void print_telemetry_summary(const TraceSummary& s, const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("events %llu  cycles %llu..%llu  resets %llu\n",
              static_cast<unsigned long long>(s.events),
              static_cast<unsigned long long>(s.first_cycle),
              static_cast<unsigned long long>(s.last_cycle),
              static_cast<unsigned long long>(s.resets));

  Table ev({"event", "count"});
  for (int k = 0; k < TelemetryEvent::kNumKinds; ++k) {
    const auto kk = static_cast<TelemetryEvent::Kind>(k);
    if (kk == TelemetryEvent::Kind::StatsReset) continue;
    ev.add_row({to_string(kk), std::to_string(s.kind_counts[k])});
  }
  ev.print_aligned("");

  if (s.classified_replies() > 0) {
    Table cat({"reply category", "count", "fraction"});
    for (int c = 0; c < kNumReplyCategories; ++c) {
      const auto cc = static_cast<ReplyCategory>(c);
      if (!reply_counted(cc)) continue;
      cat.add_row({to_string(cc), std::to_string(s.cat_counts[c]),
                   Table::pct(s.cat_fraction(cc))});
    }
    cat.print_aligned("reply categories (Fig. 6)");
  }

  if (s.have_types) {
    // Per-protocol-class circuit hit rates: the protocol-variant comparison
    // axis (which coherence event classes keep their reply predictability).
    Table cls({"protocol class", "delivered", "on circuit", "hit rate"});
    for (int t = 0; t < kNumMsgTypes; ++t) {
      if (s.type_delivered[t] == 0) continue;
      const double rate = static_cast<double>(s.type_on_circuit[t]) /
                          static_cast<double>(s.type_delivered[t]);
      cls.add_row({to_string(static_cast<MsgType>(t)),
                   std::to_string(s.type_delivered[t]),
                   std::to_string(s.type_on_circuit[t]), Table::pct(rate)});
    }
    cls.print_aligned("circuit use by protocol class");
  }

  Table life({"circuit ending", "count", "mean life", "max life"});
  auto life_row = [&life](const char* name, const Accumulator& a) {
    life.add_row({name, std::to_string(a.count()), Table::num(a.mean()),
                  Table::num(a.max(), 0)});
  };
  life_row("used (tail release)", s.lifetime_used);
  life_row("undone (undo credit)", s.lifetime_undone);
  life_row("torn down", s.lifetime_torndown);
  life_row("reclaimed (expired)", s.lifetime_reclaimed);
  life.add_row({"leaked / still open", std::to_string(s.leaked), "-", "-"});
  life.print_aligned("circuit lifetimes");

  std::printf("undo ratio %s   time-to-first-bind mean %s (n=%llu)\n",
              Table::pct(s.undo_ratio()).c_str(),
              Table::num(s.time_to_first_bind.mean()).c_str(),
              static_cast<unsigned long long>(s.time_to_first_bind.count()));
  if (s.samples > 0)
    std::printf(
        "samples %llu   mean live circuits %s   mean buffered flits %s\n",
        static_cast<unsigned long long>(s.samples),
        Table::num(s.live_circuits.mean()).c_str(),
        Table::num(s.buffered_flits.mean()).c_str());
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(const std::string& title) const {
  std::vector<std::size_t> w(headers_.size(), 3);  // "---" at the least
  for (std::size_t i = 0; i < headers_.size(); ++i)
    w[i] = std::max(w[i], headers_[i].size());
  for (const auto& r : rows_)
    for (std::size_t i = 0; i < r.size() && i < w.size(); ++i)
      w[i] = std::max(w[i], r[i].size());

  std::printf("\n");
  if (!title.empty()) std::printf("**%s**\n\n", title.c_str());
  auto line = [&](const std::vector<std::string>& cells) {
    std::printf("|");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : "";
      std::printf(" %-*s |", static_cast<int>(w[i]), c.c_str());
    }
    std::printf("\n");
  };
  line(headers_);
  std::printf("|");
  for (auto x : w) std::printf("%s|", std::string(x + 2, '-').c_str());
  std::printf("\n");
  for (const auto& r : rows_) line(r);
}

void Table::print_aligned(const std::string& title) const {
  std::vector<std::size_t> w(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) w[i] = headers_[i].size();
  for (const auto& r : rows_)
    for (std::size_t i = 0; i < r.size() && i < w.size(); ++i)
      if (r[i].size() > w[i]) w[i] = r[i].size();

  if (!title.empty()) std::printf("\n== %s ==\n", title.c_str());
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : "";
      std::printf("%-*s  ", static_cast<int>(w[i]), c.c_str());
    }
    std::printf("\n");
  };
  line(headers_);
  std::size_t total = 0;
  for (auto x : w) total += x + 2;
  std::string sep(total, '-');
  std::printf("%s\n", sep.c_str());
  for (const auto& r : rows_) line(r);
}

std::string Table::pct(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string Table::num(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace rc
