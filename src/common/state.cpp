#include "common/state.hpp"

#include "common/types.hpp"

namespace rc {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- StateWriter -----------------------------------------------------------

void StateWriter::begin_section(const char* tag) {
  RC_ASSERT(std::strlen(tag) == 4, "section tags are exactly 4 characters");
  buf_.append(tag, 4);
  open_.push_back(buf_.size());
  u64(0);  // length, patched by end_section
}

void StateWriter::end_section() {
  RC_ASSERT(!open_.empty(), "end_section without a matching begin_section");
  const std::size_t at = open_.back();
  open_.pop_back();
  const std::uint64_t len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i)
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
}

bool StateWriter::note_shared(std::uint64_t id, std::shared_ptr<void> obj) {
  const void* raw = obj.get();
  auto [it, inserted] = shared_.emplace(id, std::move(obj));
  if (!inserted && it->second.get() != raw)
    fatal("snapshot: two distinct objects share id " + std::to_string(id));
  return inserted;
}

// ---- StateReader -----------------------------------------------------------

bool StateReader::fail(const std::string& msg) {
  if (ok_) {
    ok_ = false;
    err_ = msg + " (at byte " + std::to_string(pos_) + " of " +
           std::to_string(buf_.size()) + ")";
  }
  return false;
}

bool StateReader::le(std::uint64_t* v, int bytes) {
  if (!ok_) return false;
  if (pos_ + static_cast<std::size_t>(bytes) > limit())
    return fail("truncated: need " + std::to_string(bytes) + " bytes");
  std::uint64_t out = 0;
  for (int i = 0; i < bytes; ++i)
    out |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(buf_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
  pos_ += static_cast<std::size_t>(bytes);
  *v = out;
  return true;
}

bool StateReader::u8(std::uint8_t* v) {
  std::uint64_t x;
  if (!le(&x, 1)) return false;
  *v = static_cast<std::uint8_t>(x);
  return true;
}
bool StateReader::u16(std::uint16_t* v) {
  std::uint64_t x = 0;
  if (!le(&x, 2)) return false;
  *v = static_cast<std::uint16_t>(x);
  return true;
}
bool StateReader::u32(std::uint32_t* v) {
  std::uint64_t x = 0;
  if (!le(&x, 4)) return false;
  *v = static_cast<std::uint32_t>(x);
  return true;
}
bool StateReader::u64(std::uint64_t* v) { return le(v, 8); }
bool StateReader::i64(std::int64_t* v) {
  std::uint64_t x;
  if (!le(&x, 8)) return false;
  *v = static_cast<std::int64_t>(x);
  return true;
}
bool StateReader::vu64(std::uint64_t* v) {
  std::uint64_t out = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    std::uint8_t byte;
    if (!u8(&byte)) return false;
    if (shift == 63 && (byte & 0x7f) > 1)
      return fail("varint wider than 64 bits");
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      *v = out;
      return true;
    }
  }
  return fail("varint wider than 64 bits");
}
bool StateReader::b(bool* v) {
  std::uint8_t x;
  if (!u8(&x)) return false;
  if (x > 1) return fail("bool field holds " + std::to_string(x));
  *v = x != 0;
  return true;
}
bool StateReader::d64(double* v) {
  std::uint64_t bits;
  if (!u64(&bits)) return false;
  std::memcpy(v, &bits, 8);
  return true;
}
bool StateReader::str(std::string* s) {
  std::uint64_t n;
  if (!u64(&n)) return false;
  if (pos_ + n > limit()) return fail("truncated string of " +
                                      std::to_string(n) + " bytes");
  s->assign(buf_, pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

bool StateReader::begin_section(const char* tag) {
  if (!ok_) return false;
  if (pos_ + 12 > limit()) return fail(std::string("truncated before section '") +
                                       tag + "'");
  if (buf_.compare(pos_, 4, tag, 4) != 0)
    return fail(std::string("expected section '") + tag + "', found '" +
                buf_.substr(pos_, 4) + "'");
  pos_ += 4;
  std::uint64_t len;
  if (!le(&len, 8)) return false;
  if (pos_ + len > limit())
    return fail(std::string("section '") + tag + "' claims " +
                std::to_string(len) + " bytes past the end");
  section_end_.push_back(pos_ + static_cast<std::size_t>(len));
  return true;
}

bool StateReader::end_section() {
  if (!ok_) return false;
  if (section_end_.empty()) return fail("end_section with no open section");
  const std::size_t end = section_end_.back();
  if (pos_ != end)
    return fail("section not fully consumed: " + std::to_string(end - pos_) +
                " bytes left");
  section_end_.pop_back();
  return true;
}

bool StateReader::peek_section(std::string* tag, std::uint64_t* len) {
  if (!ok_) return false;
  if (pos_ + 12 > limit()) return fail("truncated before section header");
  *tag = buf_.substr(pos_, 4);
  const std::size_t save = pos_;
  pos_ += 4;
  const bool ok = le(len, 8);
  pos_ = save;
  if (ok && save + 12 + *len > limit())
    return fail("section '" + *tag + "' claims " + std::to_string(*len) +
                " bytes past the end");
  return ok;
}

bool StateReader::skip_section() {
  std::string tag;
  std::uint64_t len;
  if (!peek_section(&tag, &len)) return false;
  pos_ += 12 + static_cast<std::size_t>(len);
  return true;
}

bool StateReader::at_end() const { return ok_ && pos_ == limit(); }

}  // namespace rc
