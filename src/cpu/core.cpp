#include "cpu/core.hpp"

#include "common/state.hpp"

namespace rc {

Core::Core(int id, std::unique_ptr<WorkloadGen> gen, L1Cache* l1,
           StatSet* stats)
    : id_(id), gen_(std::move(gen)), l1_(l1), stats_(stats) {
  stats_->at(Ctr::core_stall_cycles);  // both reported even while zero
  stats_->at(Ctr::core_mem_ops);
  l1_->set_complete([this](Cycle now) { on_complete(now); });
  next_op_ = gen_->next();
  gap_left_ = next_op_.gap;
}

void Core::flush_stalls(Cycle now) {
  // The core never ticks at the issue cycle's stall position, so stalls
  // cover (stall_from_, now]; advancing stall_from_ makes the flush
  // idempotent across run_cycles block boundaries.
  if (waiting_ && now > stall_from_) {
    stats_->at(Ctr::core_stall_cycles) += now - stall_from_;
    stall_from_ = now;
  }
}

void Core::on_complete(Cycle now) {
  flush_stalls(now);
  ++retired_;  // the memory instruction itself
  waiting_ = false;
  next_op_ = gen_->next();
  gap_left_ = next_op_.gap;
  wake(now + 1);  // completion happens after this cycle's core phase
}

void Core::tick(Cycle now) {
  if (waiting_) return;  // stalls are accounted in flush_stalls
  if (gap_left_ > 0) {
    --gap_left_;
    ++retired_;
    return;
  }
  if (l1_->access(next_op_.addr, next_op_.is_write, now)) {
    waiting_ = true;
    stall_from_ = now;
    ++stats_->at(Ctr::core_mem_ops);
  }
}

void Core::save(StateWriter& w) const {
  gen_->save(w);
  w.u64(next_op_.addr);
  w.b(next_op_.is_write);
  w.i64(next_op_.gap);
  w.i64(gap_left_);
  w.b(waiting_);
  w.u64(stall_from_);
  w.u64(retired_);
}

bool Core::load(StateReader& r) {
  if (!gen_->load(r)) return false;
  std::int64_t gap, gap_left;
  if (!(r.u64(&next_op_.addr) && r.b(&next_op_.is_write) && r.i64(&gap) &&
        r.i64(&gap_left) && r.b(&waiting_) && r.u64(&stall_from_) &&
        r.u64(&retired_)))
    return false;
  next_op_.gap = static_cast<int>(gap);
  gap_left_ = static_cast<int>(gap_left);
  return true;
}

}  // namespace rc
