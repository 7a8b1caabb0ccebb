// Coherence trace: drive a core-less CMP through the flows of the paper's
// Table 3 and print every message that crosses the network — a readable
// transcript of the MESI directory protocol the NoC carries.
#include <cstdio>
#include <memory>

#include "noc/observer.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

using namespace rc;

namespace {

/// Prints each message as its tail flit ejects at the destination NI.
struct Printer final : NocObserver {
  void on_message_delivered(NodeId n, const Message& m, Cycle now) override {
    std::printf("    @%5llu  %2d -> %-2d  %-10s addr=%llx%s%s\n",
                static_cast<unsigned long long>(now), m.src, n,
                to_string(m.type), static_cast<unsigned long long>(m.addr),
                m.on_circuit ? "  [circuit]" : "",
                m.ack_elided ? "  [ack elided]" : "");
  }
};

struct Tracer {
  explicit Tracer(const std::string& preset) {
    SystemConfig cfg = make_system_config(16, preset, "fft");
    cfg.workload = "none";
    sys = std::make_unique<System>(cfg);
    sys->network().set_observer(&printer);
  }

  void access(NodeId n, Addr a, bool write, const char* what) {
    std::printf("\n== node %d %s line %llx: %s\n", n,
                write ? "writes" : "reads",
                static_cast<unsigned long long>(a), what);
    bool done = false;
    sys->l1(n).set_complete([&](Cycle) { done = true; });
    sys->l1(n).access(a, write, sys->now());
    int guard = 4000;
    while (!done && guard-- > 0) sys->run_cycles(1);
    sys->run_cycles(120);  // drain trailing ACKs for a tidy transcript
  }

  Printer printer;
  std::unique_ptr<System> sys;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string preset = argc > 1 ? argv[1] : "Complete_NoAck";
  std::printf("MESI transcript under the '%s' NoC (Table 3 flows)\n",
              preset.c_str());
  Tracer t(preset);

  const Addr a = 5 * kLineBytes;  // homed at L2 bank 5
  t.access(0, a, false,
           "L1 miss -> GetS to home bank 5, L2 miss -> memory, data reply"
           " (+ DATA_ACK unless elided)");
  t.access(0, a, true, "silent E->M upgrade: no traffic at all");
  t.access(1, a, false,
           "another L1 misses; the owner supplies the data directly"
           " (L2 forwards, L1_TO_L1), the requestor ACKs the home bank");
  t.access(2, a, true,
           "write: the home bank invalidates both sharers, collects"
           " L1_INV_ACKs, then sends the exclusive data");
  t.access(2, 100 * kLineBytes, false,
           "unrelated read (cold miss straight to memory)");
  std::printf("\n(done — swap the preset: %s [Baseline|Complete|"
              "Complete_NoAck|SlackDelay1_NoAck|Ideal])\n",
              argv[0]);
  return 0;
}
