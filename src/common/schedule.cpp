#include "common/schedule.hpp"

#include <cstdlib>

namespace rc {

const char* to_string(TickMode m) {
  switch (m) {
    case TickMode::Activity: return "Activity";
    case TickMode::Verify: return "Verify";
  }
  return "?";
}

TickMode effective_tick_mode(TickMode configured) {
  if (const char* v = std::getenv("RC_VERIFY_TICKS"))
    if (v[0] == '1') return TickMode::Verify;
  return configured;
}

}  // namespace rc
