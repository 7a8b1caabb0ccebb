#include "common/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace rc {

namespace {

std::string errno_suffix() {
  return std::string(": ") + std::strerror(errno);
}

void set_err(std::string* err, const std::string& msg) {
  if (err) *err = msg + errno_suffix();
}

}  // namespace

bool read_file(const std::string& path, std::string* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_err(err, "cannot open '" + path + "'");
    return false;
  }
  out->clear();
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) set_err(err, "cannot read '" + path + "'");
  return ok;
}

bool fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp." + std::to_string(::getpid())) {
  f_ = std::fopen(tmp_.c_str(), "w");
}

AtomicFile::~AtomicFile() {
  if (committed_) return;
  if (f_) std::fclose(f_);
  if (f_) ::unlink(tmp_.c_str());
}

bool AtomicFile::commit(std::string* err) {
  if (!f_) {
    set_err(err, "cannot open temporary '" + tmp_ + "'");
    return false;
  }
  // ferror catches earlier short fprintf/fputs writes the callers did not
  // individually check; flush + fsync push the bytes to the device before
  // the rename makes them the file everyone else reads.
  bool ok = std::ferror(f_) == 0;
  ok = std::fflush(f_) == 0 && ok;
  ok = ::fsync(::fileno(f_)) == 0 && ok;
  ok = std::fclose(f_) == 0 && ok;
  f_ = nullptr;
  if (!ok) {
    set_err(err, "I/O error writing '" + tmp_ + "'");
    ::unlink(tmp_.c_str());
    committed_ = true;  // nothing left to clean up in the destructor
    return false;
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    set_err(err, "cannot rename '" + tmp_ + "' to '" + path_ + "'");
    ::unlink(tmp_.c_str());
    committed_ = true;
    return false;
  }
  committed_ = true;
  if (!fsync_parent_dir(path_)) {
    set_err(err, "cannot fsync directory of '" + path_ + "'");
    return false;
  }
  return true;
}

bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* err) {
  AtomicFile out(path);
  if (!out.stream()) {
    set_err(err, "cannot open temporary for '" + path + "'");
    return false;
  }
  if (!content.empty() &&
      std::fwrite(content.data(), 1, content.size(), out.stream()) !=
          content.size()) {
    set_err(err, "short write to temporary for '" + path + "'");
    return false;
  }
  return out.commit(err);
}

bool append_line_durable(std::FILE* f, const std::string& line) {
  if (!f) return false;
  if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) return false;
  if (std::fputc('\n', f) == EOF) return false;
  if (std::fflush(f) != 0) return false;
  return ::fsync(::fileno(f)) == 0;
}

}  // namespace rc
