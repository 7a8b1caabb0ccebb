#include "coherence/directory.hpp"

#include <string>
#include <vector>

#include "common/state.hpp"

namespace rc {

Directory::Directory(const CacheConfig& cfg, int num_banks)
    : array_(cfg.dir_sets, cfg.dir_ways, num_banks),
      pointers_(cfg.dir_pointers), nodes_(num_banks) {}

bool Directory::needs_pointer_recall(const Line& l, NodeId requestor) const {
  if (l.meta.sharers.test(requestor)) return false;
  return l.meta.sharers.count() >= pointers_;
}

Directory::Line* Directory::find_or_install(Addr addr, Cycle now) {
  const auto p = array_.probe(addr);
  if (p.hit || !p.line) return p.line;
  return array_.install(p.line, addr, now);
}

Directory::Line* Directory::victim(
    Addr addr, const std::function<bool(Addr)>& evictable) {
  return array_.victim(addr, [&](Addr tag, const Line&) {
    return evictable(tag);
  });
}

void Directory::save(StateWriter& w) const {
  w.u64(array_.size());
  for (std::size_t i = 0; i < array_.size(); ++i) {
    const Line& l = array_.line(i);
    w.b(array_.valid(i));
    w.u64(array_.tag(i));
    w.u64(array_.stamp(i));
    w.i64(l.meta.owner);
    const auto words = l.meta.sharers.words();
    w.u64(words.size());
    for (std::uint64_t x : words) w.u64(x);
  }
}

bool Directory::load(StateReader& r) {
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  if (n != array_.size())
    return r.fail("directory has " + std::to_string(array_.size()) +
                  " entries, snapshot has " + std::to_string(n));
  std::vector<Cycle> stamps(array_.size());
  for (std::size_t i = 0; i < array_.size(); ++i) {
    Line& l = array_.line(i);
    bool valid;
    Addr tag;
    std::int64_t owner;
    std::uint64_t nw;
    if (!(r.b(&valid) && r.u64(&tag) && r.u64(&stamps[i]) &&
          r.i64(&owner) && r.u64(&nw)))
      return false;
    if (const char* why = array_.restore(i, valid, tag))
      return r.fail("directory entry " + std::to_string(i) + ": " + why);
    if (owner < kInvalidNode || owner >= nodes_)
      return r.fail("directory entry " + std::to_string(i) + ": owner " +
                    std::to_string(owner) + " out of range for " +
                    std::to_string(nodes_) + " nodes");
    l.meta.owner = static_cast<NodeId>(owner);
    if (nw > (static_cast<std::uint64_t>(nodes_) + 63) / 64)
      return r.fail("directory entry " + std::to_string(i) + ": " +
                    std::to_string(nw) + " sharer words for " +
                    std::to_string(nodes_) + " nodes");
    std::vector<std::uint64_t> words(nw);
    for (std::uint64_t& x : words)
      if (!r.u64(&x)) return false;
    l.meta.sharers.set_words(words);
  }
  array_.restore_stamps(stamps);
  return true;
}

}  // namespace rc
