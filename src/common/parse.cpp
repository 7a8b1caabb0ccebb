#include "common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace rc {

std::optional<long long> parse_ll(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return std::nullopt;
  return v;
}

long long env_positive_ll(const char* name, long long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  auto parsed = parse_ll(v);
  if (!parsed || *parsed <= 0) {
    std::fprintf(stderr,
                 "rc: environment variable %s=\"%s\" is not a positive "
                 "integer\n",
                 name, v);
    std::exit(2);
  }
  return *parsed;
}

long long flag_ll(const char* flag, const char* v, long long min_v) {
  const auto parsed = parse_ll(v);
  if (!parsed || *parsed < min_v) {
    std::fprintf(stderr, "%s: \"%s\" is not an integer >= %lld\n", flag, v,
                 min_v);
    std::exit(2);
  }
  return *parsed;
}

// ---- minimal JSON ---------------------------------------------------------

const Json* Json::find(const std::string& key) const {
  if (type != Type::Obj) return nullptr;
  for (const auto& kv : obj)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

namespace {

/// Cursor over the input with a single-error channel; every parse_* method
/// either consumes a complete construct or records the first error.
struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  explicit JsonParser(const std::string& t) : text(t) {}

  bool fail(const std::string& what) {
    if (error.empty())
      error = what + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }
  bool eat(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }
  bool literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0) return fail("bad literal");
    pos += len;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!eat('"')) return false;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return fail("dangling escape");
        const char e = text[pos++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: return fail(std::string("unsupported escape \\") + e);
        }
      }
      out->push_back(c);
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }

  bool parse_number(Json* out) {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool is_double = false;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      if (text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E')
        is_double = true;
      ++pos;
    }
    const std::string tok = text.substr(start, pos - start);
    if (tok.empty() || tok == "-" || tok == "+") return fail("bad number");
    char* end = nullptr;
    errno = 0;
    if (is_double) {
      out->type = Json::Type::Double;
      out->d = std::strtod(tok.c_str(), &end);
      if (errno == ERANGE || end != tok.c_str() + tok.size())
        return fail("bad number '" + tok + "'");
      out->i = static_cast<long long>(out->d);
    } else {
      out->type = Json::Type::Int;
      out->i = std::strtoll(tok.c_str(), &end, 10);
      if (errno == ERANGE || end != tok.c_str() + tok.size())
        return fail("bad number '" + tok + "'");
      out->d = static_cast<double>(out->i);
    }
    return true;
  }

  bool parse_value(Json* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->type = Json::Type::Obj;
      skip_ws();
      if (pos < text.size() && text[pos] == '}') { ++pos; return true; }
      for (;;) {
        std::string key;
        if (!parse_string(&key)) return false;
        if (!eat(':')) return false;
        Json v;
        if (!parse_value(&v)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') { ++pos; skip_ws(); continue; }
        return eat('}');
      }
    }
    if (c == '[') {
      ++pos;
      out->type = Json::Type::Arr;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') { ++pos; return true; }
      for (;;) {
        Json v;
        if (!parse_value(&v)) return false;
        out->arr.push_back(std::move(v));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') { ++pos; continue; }
        return eat(']');
      }
    }
    if (c == '"') {
      out->type = Json::Type::Str;
      return parse_string(&out->s);
    }
    if (c == 't') { out->type = Json::Type::Bool; out->b = true;  return literal("true", 4); }
    if (c == 'f') { out->type = Json::Type::Bool; out->b = false; return literal("false", 5); }
    if (c == 'n') { out->type = Json::Type::Null; return literal("null", 4); }
    return parse_number(out);
  }
};

}  // namespace

std::optional<Json> parse_json(const std::string& text, std::string* err) {
  JsonParser p(text);
  Json v;
  if (!p.parse_value(&v)) {
    if (err) *err = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err)
      *err = "trailing garbage at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return v;
}

}  // namespace rc
