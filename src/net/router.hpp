// Arctic-style packet router.
//
// The modelled router has per-input, per-priority packet buffers, a routing
// function supplied by the topology, and one output process per output port
// that selects among buffered head packets (high priority strictly first,
// round-robin within a priority class) — the scheduling discipline the
// Arctic switch implements. Forwarding a packet takes a fall-through delay
// plus serialization on the output link; upstream credits are returned the
// moment a packet leaves its input buffer.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/coro.hpp"
#include "sim/fifo.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"

namespace sv::net {

class Router : public sim::SimObject {
 public:
  /// Header decode + crossbar, in cycles of kLinkClock.
  static constexpr sim::Cycles kFallThroughCycles = 3;

  struct Params {
    unsigned num_inputs = 8;
    unsigned num_outputs = 8;
    std::uint32_t fault_lane = 0;  // fault::Injector stream this router draws
  };

  /// Maps a packet to the output port it must leave through.
  using RouteFn = std::function<unsigned(const Packet&)>;

  Router(sim::Kernel& kernel, std::string name, Params params, RouteFn route);

  /// Receive a packet on input port `in` (wired as the upstream link's sink).
  void receive(unsigned in, Packet&& pkt);

  /// Wire output port `out` to `link` (not owned).
  void connect_output(unsigned out, Link* link);

  /// Wire the upstream link of input port `in`, for credit returns.
  void connect_input_upstream(unsigned in, Link* link);

  /// Spawn the output processes. Call once after wiring.
  void start();

  [[nodiscard]] const sim::Counter& packets_routed() const {
    return routed_;
  }

 private:
  struct InPort {
    std::array<sim::Fifo<Packet>, kNumPriorities> vq;
    Link* upstream = nullptr;
  };

  sim::Co<void> output_process(unsigned out);

  /// Find a buffered head packet routed to `out`; highest priority first,
  /// round-robin across inputs within a priority. Returns input index or -1.
  int pick_input(unsigned out, std::uint8_t priority);

  Params params_;
  RouteFn route_;
  std::vector<InPort> inputs_;
  std::vector<Link*> outputs_;
  std::vector<unsigned> rr_next_;  // per output: next input for round-robin
  sim::Signal work_;
  sim::Counter routed_;
  bool started_ = false;
  trace::TrackId trace_track_ = trace::kNoTrack;
};

}  // namespace sv::net
