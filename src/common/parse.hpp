// Checked integer parsing for environment variables and CLI flags.
//
// std::atoi / strtoull-with-null-endptr silently map garbage to 0, which
// turns a typo like RC_JOBS=all into a nonsense run. Everything here either
// parses the full string or reports the offending value and exits non-zero.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rc {

/// Strict base-10 parse of the entire string. Returns nullopt on empty
/// input, trailing junk, or overflow.
std::optional<long long> parse_ll(const char* s);

/// Read an integer environment variable that must be a positive integer
/// when set. Unset (or empty) returns `fallback`; a set-but-invalid or
/// non-positive value prints a diagnostic to stderr and exits with status 2.
long long env_positive_ll(const char* name, long long fallback);

/// Checked integer command-line value: all of `v`, at least `min_v`.
/// Anything else prints `<flag>: "<v>" is not an integer >= <min_v>` and
/// exits with status 2.
long long flag_ll(const char* flag, const char* v, long long min_v);

// ---- minimal JSON ---------------------------------------------------------
//
// The rc-dse sweep specs are declarative JSON documents (axis lists, scalar
// knobs, exclude objects); the toolchain has no JSON library, so this is a
// small strict recursive-descent parser for the standard grammar. It exists
// for *parsing inputs we validate*; writers elsewhere keep emitting JSON by
// hand with fixed key order (byte-stable outputs matter more than a
// serializer).

struct Json {
  enum class Type { Null, Bool, Int, Double, Str, Arr, Obj };
  Type type = Type::Null;
  bool b = false;
  long long i = 0;   ///< Int; also filled (as a truncation) for Double
  double d = 0;      ///< Double; also filled for Int
  std::string s;     ///< Str
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;  ///< insertion order kept

  bool is_num() const { return type == Type::Int || type == Type::Double; }
  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;
};

/// Parse a complete JSON document (one value, then end of input). Returns
/// nullopt and a position-annotated message in *err on any syntax error —
/// garbage or a truncated document never yields a partial value.
std::optional<Json> parse_json(const std::string& text, std::string* err);

}  // namespace rc
