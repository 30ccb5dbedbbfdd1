// Unidirectional Arctic link with credit-based flow control.
//
// A link models the 16-bit-wide, 80 MHz Arctic channel: 2 bytes per link
// cycle = 160 MB/s per direction. The receiver grants a fixed number of
// packet credits per priority class; the sender must hold a credit before
// serializing a packet, which bounds receiver buffering and propagates
// backpressure hop by hop. Credits are returned by the receiver when the
// packet leaves its input buffer.
//
// Exactly one packet serializes on the wire at a time; priority selection
// among waiting packets is the *sender's* job (router output stage / NIU
// TxU), so the link itself never queues more than one send.
#pragma once

#include <functional>
#include <string>

#include "net/packet.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace sv::net {

/// The 80 MHz Arctic link clock; the routers run at it too.
inline constexpr sim::Clock kLinkClock{12500};

class Link : public sim::SimObject {
 public:
  static constexpr std::uint32_t kBytesPerCycle = 2;   // 16-bit channel
  static constexpr sim::Cycles kPropagationCycles = 3;  // wire + synchronizer

  struct Params {
    std::uint32_t credits_per_priority = 2;  // receiver buffer slots
    std::uint32_t fault_lane = 0;  // fault::Injector stream this link draws
  };

  /// Called when a packet fully arrives at the receiving end.
  using Deliver = std::function<void(Packet&&)>;

  Link(sim::Kernel& kernel, std::string name, Params params);

  void set_sink(Deliver deliver) { deliver_ = std::move(deliver); }

  /// Transmit one packet: waits for a credit of the packet's priority,
  /// serializes it on the wire, and schedules delivery at the far end after
  /// propagation. Returns when the wire is free again (tail has left).
  sim::Co<void> send(Packet pkt);

  /// Receiver-side: return one buffer credit for `priority`.
  void return_credit(std::uint8_t priority);

  [[nodiscard]] std::uint32_t credits(std::uint8_t priority) const {
    return credits_[priority];
  }

  [[nodiscard]] static constexpr sim::Cycles serialize_cycles(
      std::size_t bytes) {
    return (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
  }

  [[nodiscard]] const sim::Counter& bytes_sent() const { return bytes_; }
  /// Packets lost to injected faults on this link.
  [[nodiscard]] const sim::Counter& packets_dropped() const {
    return dropped_;
  }
  [[nodiscard]] const sim::BusyTracker& busy() const { return busy_; }
  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
  Deliver deliver_;
  std::uint32_t credits_[kNumPriorities];
  sim::Signal credit_freed_;
  sim::Semaphore wire_;
  PacketPool pool_;  // in-flight packets between wire tail and delivery
  sim::Counter bytes_;
  sim::Counter dropped_;
  sim::BusyTracker busy_;
  trace::TrackId trace_track_ = trace::kNoTrack;
};

}  // namespace sv::net
