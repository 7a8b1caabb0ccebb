#include "common/stats.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/parse.hpp"
#include "common/state.hpp"

namespace rc {

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  // Moments are kept about shift_ (the first sample), so the two terms are
  // the same magnitude as the spread itself — no cancellation at large means.
  const double n = static_cast<double>(n_);
  const double md = sumd_ / n;
  const double v = (sumd2_ - n * md * md) / (n - 1.0);
  return v > 0 ? v : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::stderr_mean() const {
  return n_ ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

void Accumulator::merge(const Accumulator& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  if (o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  // Rebase o's shifted moments onto our shift: (v - s) = (v - so) + (so - s).
  const double d = o.shift_ - shift_;
  const double on = static_cast<double>(o.n_);
  sumd_ += o.sumd_ + on * d;
  sumd2_ += o.sumd2_ + 2.0 * d * o.sumd_ + on * d * d;
  n_ += o.n_;
  sum_ += o.sum_;
}

void Histogram::add(double v) {
  int b = 0;
  if (v >= 1.0) {
    double x = v;
    while (x >= 2.0 && b < kBuckets - 2) {
      x /= 2.0;
      ++b;
    }
    ++b;  // [1,2) is bucket 1
  }
  if (b >= kBuckets) b = kBuckets - 1;
  ++b_[b];
  ++n_;
}

double Histogram::percentile(double fraction) const {
  // Upper edge of bucket i: 0 -> 1, k -> 2^k.
  const auto edge = [](int i) { return i == 0 ? 1.0 : std::ldexp(1.0, i); };
  if (n_ == 0 || fraction <= 0.0) return 0.0;
  const double target =
      fraction >= 1.0 ? static_cast<double>(n_)
                      : fraction * static_cast<double>(n_);
  double seen = 0;
  int last_nonempty = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (b_[i] == 0) continue;  // never answer with an empty bucket's edge
    last_nonempty = i;
    seen += static_cast<double>(b_[i]);
    if (seen >= target) return edge(i);
  }
  // Only reachable through floating-point shortfall at fraction ~ 1: fall
  // back to the true top occupied bucket rather than the table's last edge.
  return edge(last_nonempty);
}

void Histogram::reset() {
  for (auto& x : b_) x = 0;
  n_ = 0;
}

void Histogram::merge(const Histogram& o) {
  for (int i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
  n_ += o.n_;
}

void StatSet::reset() {
  ctrs_.reset();
  accs_.reset();
  hists_.reset();
}

void StatSet::merge(const StatSet& o) {
  ctrs_.merge(o.ctrs_);
  accs_.merge(o.accs_);
  hists_.merge(o.hists_);
}

void Accumulator::save(StateWriter& w) const {
  w.u64(n_);
  w.d64(sum_);
  w.d64(min_);
  w.d64(max_);
  w.d64(shift_);
  w.d64(sumd_);
  w.d64(sumd2_);
}

bool Accumulator::load(StateReader& r) {
  return r.u64(&n_) && r.d64(&sum_) && r.d64(&min_) && r.d64(&max_) &&
         r.d64(&shift_) && r.d64(&sumd_) && r.d64(&sumd2_);
}

void Histogram::save(StateWriter& w) const {
  w.u64(n_);
  for (std::uint64_t x : b_) w.u64(x);
}

bool Histogram::load(StateReader& r) {
  if (!r.u64(&n_)) return false;
  for (auto& x : b_)
    if (!r.u64(&x)) return false;
  return true;
}

namespace {
void save_value(StateWriter& w, std::uint64_t v) { w.u64(v); }
template <class T>
void save_value(StateWriter& w, const T& v) { v.save(w); }
bool load_value(StateReader& r, std::uint64_t* v) { return r.u64(v); }
template <class T>
bool load_value(StateReader& r, T* v) { return v->load(r); }

template <class H, class T, const auto& N>
void save_slots(StateWriter& w, const StatSlots<H, T, N>& s) {
  const auto touched = s.list();
  w.u64(touched.size());
  for (const auto& [k, v] : touched) {
    w.str(k);
    save_value(w, v);
  }
}

template <class H, class T, const auto& N>
bool load_slots(StateReader& r, StatSlots<H, T, N>* s) {
  *s = {};
  std::uint64_t n;
  std::string k;
  if (!r.u64(&n)) return false;
  for (std::uint64_t j = 0; j < n; ++j) {
    if (!r.str(&k)) return false;
    const std::size_t i = s->index(k);
    if (i == s->kSize) return r.fail("unknown stat '" + k + "'");
    if (s->find(k)) return r.fail("repeated stat '" + k + "'");
    if (!load_value(r, &s->at(static_cast<H>(i)))) return false;
  }
  return true;
}
}  // namespace

void StatSet::save(StateWriter& w) const {
  save_slots(w, ctrs_);
  save_slots(w, accs_);
  save_slots(w, hists_);
}

bool StatSet::load(StateReader& r) {
  return load_slots(r, &ctrs_) && load_slots(r, &accs_) &&
         load_slots(r, &hists_);
}

namespace {

/// %.17g restores every finite double exactly. An integral spelling gets
/// ".0" so it reads back as a double: a bare "-0" would lose its sign.
void put_double(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
  if (std::strpbrk(buf, ".en") == nullptr) *out += ".0";
}

void put_value(std::string* out, std::uint64_t v) {
  *out += std::to_string(v);
}
template <class T>
void put_value(std::string* out, const T& v) { v.write_json(out); }
bool get_value(const Json& j, std::uint64_t* v) {
  *v = static_cast<std::uint64_t>(j.i);
  return j.type == Json::Type::Int && j.i >= 0;
}
template <class T>
bool get_value(const Json& j, T* v) { return v->read_json(j); }

template <class H, class T, const auto& N>
void put_slots(std::string* out, const char* kind,
               const StatSlots<H, T, N>& s) {
  *out += std::string("\"") + kind + "\":{";
  bool first = true;
  for (const auto& [k, v] : s.list()) {
    *out += std::string(first ? "\"" : ",\"") + k + "\":";
    put_value(out, v);
    first = false;
  }
  *out += '}';
}

template <class H, class T, const auto& N>
bool get_slots(const Json& set, const char* kind, StatSlots<H, T, N>* s,
               std::string* err) {
  *s = {};
  auto fail = [&](const std::string& msg) {
    if (err) *err = msg;
    return false;
  };
  const Json* j = set.find(kind);
  if (j == nullptr || j->type != Json::Type::Obj)
    return fail(std::string("no \"") + kind + "\" object");
  for (const auto& [k, v] : j->obj) {
    const std::size_t i = s->index(k);
    if (i == s->kSize) return fail("unknown stat '" + k + "'");
    if (s->find(k)) return fail("repeated stat '" + k + "'");
    if (!get_value(v, &s->at(static_cast<H>(i))))
      return fail("malformed stat '" + k + "'");
  }
  return true;
}
}  // namespace

void Accumulator::write_json(std::string* out) const {
  *out += '[';
  put_value(out, n_);
  for (double v : {sum_, min_, max_, shift_, sumd_, sumd2_}) {
    *out += ',';
    put_double(out, v);
  }
  *out += ']';
}

bool Accumulator::read_json(const Json& j) {
  double* fields[] = {&sum_, &min_, &max_, &shift_, &sumd_, &sumd2_};
  if (j.arr.size() != 7 || !get_value(j.arr[0], &n_)) return false;
  for (std::size_t i = 0; i < 6; ++i) {
    if (!j.arr[i + 1].is_num()) return false;
    *fields[i] = j.arr[i + 1].d;
  }
  return true;
}

void Histogram::write_json(std::string* out) const {
  *out += '[';
  put_value(out, n_);
  for (std::uint64_t b : b_) {
    *out += ',';
    put_value(out, b);
  }
  *out += ']';
}

bool Histogram::read_json(const Json& j) {
  if (j.arr.size() != kBuckets + 1 || !get_value(j.arr[0], &n_))
    return false;
  for (int i = 0; i < kBuckets; ++i)
    if (!get_value(j.arr[i + 1], &b_[i])) return false;
  return true;
}

std::string StatSet::to_json() const {
  std::string out = "{";
  put_slots(&out, "counters", ctrs_);
  out += ',';
  put_slots(&out, "accumulators", accs_);
  out += ',';
  put_slots(&out, "histograms", hists_);
  return out + '}';
}

bool StatSet::from_json(const Json& j, std::string* err) {
  return get_slots(j, "counters", &ctrs_, err) &&
         get_slots(j, "accumulators", &accs_, err) &&
         get_slots(j, "histograms", &hists_, err);
}

}  // namespace rc
