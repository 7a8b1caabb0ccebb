#include "noc/message_pool.hpp"

#include <algorithm>
#include <string>

#include "common/state.hpp"

namespace rc {

MessagePool::MessagePool(int num_nodes)
    : buckets_(static_cast<std::size_t>(num_nodes > 0 ? num_nodes : 1)) {
  // Seed each bucket's node freelist (and, via the throwaway inserts, its
  // hash bucket array) up front: without this, every new concurrent
  // in-flight high-water mark of a source node costs a hash-node
  // allocation mid-run, which defeats the allocation-free steady state the
  // datapath promises. The keys are synthetic non-null values that are
  // hashed but never dereferenced, and all entries are extracted again
  // before the pool is used. ~16 nodes x ~56 B per source node is noise.
  constexpr std::size_t kSeedNodesPerBucket = 16;
  for (Bucket& b : buckets_) {
    b.free_nodes.reserve(kSeedNodesPerBucket);
    for (std::size_t i = 1; i <= kSeedNodesPerBucket; ++i)
      b.pinned.emplace(reinterpret_cast<const Message*>(i), nullptr);
    while (!b.pinned.empty())
      b.free_nodes.push_back(b.pinned.extract(b.pinned.begin()));
  }
}

MessagePool::Bucket& MessagePool::bucket_of(const Message* msg) {
  const NodeId src = msg->src;
  RC_ASSERT(src >= 0 && static_cast<std::size_t>(src) < buckets_.size(),
            "message source outside the pool's mesh");
  return buckets_[static_cast<std::size_t>(src)];
}

void MessagePool::pin(const MsgPtr& msg) {
  Bucket& b = bucket_of(msg.get());
  std::lock_guard<std::mutex> lock(b.mu);
  if (!b.free_nodes.empty()) {
    auto node = std::move(b.free_nodes.back());
    b.free_nodes.pop_back();
    node.key() = msg.get();
    node.mapped() = msg;
    auto res = b.pinned.insert(std::move(node));
    if (!res.inserted) {
      b.free_nodes.push_back(std::move(res.node));
      fatal("MessagePool: message " + std::to_string(msg->id) + " (" +
            to_string(msg->type) + ") pinned twice — double injection");
    }
    return;
  }
  auto [it, inserted] = b.pinned.emplace(msg.get(), msg);
  if (!inserted)
    fatal("MessagePool: message " + std::to_string(msg->id) + " (" +
          to_string(msg->type) + ") pinned twice — double injection");
}

MsgPtr MessagePool::release(const Message* msg) {
  Bucket& b = bucket_of(msg);
  std::lock_guard<std::mutex> lock(b.mu);
  auto it = b.pinned.find(msg);
  if (it == b.pinned.end())
    fatal("MessagePool: message " + std::to_string(msg->id) + " (" +
          to_string(msg->type) +
          ") released but not pinned — reuse after release");
  MsgPtr owner = std::move(it->second);
  auto node = b.pinned.extract(it);
  node.mapped().reset();  // drop the moved-from shared_ptr before recycling
  b.free_nodes.push_back(std::move(node));
  return owner;
}

void MessagePool::save(StateWriter& w) const {
  w.u64(buckets_.size());
  for (const auto& b : buckets_) {
    std::lock_guard<std::mutex> lock(b.mu);
    std::vector<MsgPtr> msgs;
    msgs.reserve(b.pinned.size());
    for (const auto& [raw, owner] : b.pinned) msgs.push_back(owner);
    std::sort(msgs.begin(), msgs.end(),
              [](const MsgPtr& a, const MsgPtr& x) { return a->id < x->id; });
    w.u64(msgs.size());
    for (const MsgPtr& m : msgs) save_msg_ref(w, m);
  }
}

bool MessagePool::load(StateReader& r) {
  std::uint64_t nb;
  if (!r.u64(&nb)) return false;
  if (nb != buckets_.size())
    return r.fail("pool has " + std::to_string(buckets_.size()) +
                  " buckets, snapshot has " + std::to_string(nb));
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::uint64_t n;
    if (!r.u64(&n)) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      MsgPtr m;
      if (!load_msg_ref(r, &m)) return false;
      if (!m) return r.fail("null pinned message in pool snapshot");
      // pin() buckets by source node; a message saved under another node's
      // bucket is corrupt, and an out-of-range source (negative ones wrap)
      // would fail pin()'s assertion instead of the load.
      if (static_cast<std::size_t>(m->src) != b)
        return r.fail("pool snapshot: message " + std::to_string(m->id) +
                      " from node " + std::to_string(m->src) +
                      " saved in the bucket of node " + std::to_string(b));
      pin(m);
    }
  }
  return true;
}

std::size_t MessagePool::pinned() const {
  std::size_t n = 0;
  for (const auto& b : buckets_) {
    std::lock_guard<std::mutex> lock(b.mu);
    n += b.pinned.size();
  }
  return n;
}

}  // namespace rc
