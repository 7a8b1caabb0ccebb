// Fundamental types shared by every module of the Reactive Circuits CMP model.
#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rc {

/// Global simulation time, in core/NoC clock cycles (both run at 2 GHz).
using Cycle = std::uint64_t;

/// Physical (cache-line-granular) address.
using Addr = std::uint64_t;

/// Flat tile / node identifier, 0 .. num_nodes-1, row-major in the mesh.
using NodeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/// Cache line size used across the whole hierarchy (Table 2 of the paper).
inline constexpr unsigned kLineBytes = 64;

inline constexpr Addr line_addr(Addr a) { return a & ~Addr{kLineBytes - 1}; }

/// 2-D mesh coordinate.
struct Coord {
  int x = 0;  ///< column, grows east
  int y = 0;  ///< row, grows south

  friend auto operator<=>(const Coord&, const Coord&) = default;
};

/// Router port direction. `kLocal` is the NI-facing port.
enum class Dir : std::uint8_t { North = 0, East, South, West, Local };

inline constexpr int kNumDirs = 5;

/// Port index type: 0..4 mapping to Dir.
using Port = std::uint8_t;

inline constexpr Port port_of(Dir d) { return static_cast<Port>(d); }
inline constexpr Dir dir_of(Port p) { return static_cast<Dir>(p); }

/// Direction of the neighbour that sits on the other end of a link leaving
/// through `d` (e.g. data leaving my East port enters the neighbour's West).
inline constexpr Dir opposite(Dir d) {
  switch (d) {
    case Dir::North: return Dir::South;
    case Dir::East: return Dir::West;
    case Dir::South: return Dir::North;
    case Dir::West: return Dir::East;
    case Dir::Local: return Dir::Local;
  }
  return Dir::Local;
}

inline const char* to_string(Dir d) {
  switch (d) {
    case Dir::North: return "N";
    case Dir::East: return "E";
    case Dir::South: return "S";
    case Dir::West: return "W";
    case Dir::Local: return "L";
  }
  return "?";
}

/// Virtual networks. The coherence protocol uses two: requests and replies
/// (Table 4). Different message classes on different VNs avoid protocol
/// deadlock, and allow XY routing on VN0 with YX routing on VN1.
enum class VNet : std::uint8_t { Request = 0, Reply = 1 };

inline constexpr int kNumVNets = 2;

inline const char* to_string(VNet v) {
  return v == VNet::Request ? "REQ" : "REP";
}

/// Exception thrown by fatal(). Uncaught it still kills the process (with
/// the message already on stderr), but supervising code — notably rc-fuzz
/// and the tests — can catch it and attribute the failure to a specific
/// configuration. Batches isolate failures by running each
/// configuration as its own process (run_sweep, sim/dse.hpp).
class FatalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Report an invariant violation (a modelling bug rather than a recoverable
/// condition): print to stderr, then throw FatalError.
[[noreturn]] inline void fatal(const std::string& msg) {
  std::fprintf(stderr, "rc fatal: %s\n", msg.c_str());
  throw FatalError(msg);
}

#define RC_ASSERT(cond, msg)                                    \
  do {                                                          \
    if (!(cond)) ::rc::fatal(std::string("assertion failed: ") + \
                             #cond + " — " + (msg));            \
  } while (0)

// Debug-only flavour for invariants checked in the per-flit inner loops
// (pipe push/pop, crossbar sends): the check is structural — upheld by
// credits and wiring, not by runtime input — so Release builds elide it.
#ifdef NDEBUG
#define RC_DASSERT(cond, msg) \
  do {                        \
  } while (0)
#else
#define RC_DASSERT(cond, msg) RC_ASSERT(cond, msg)
#endif

}  // namespace rc
