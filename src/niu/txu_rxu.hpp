// TxU / RxU: the network-facing datapath (one FPGA in the real NIU).
//
// TxU drains the transmit queues CTRL arbitrates (priority classes, then
// round-robin) and launches messages; RxU accepts packets from the network
// — high priority strictly first — and hands them to CTRL's receive
// dispatch (queue-cache lookup, full-queue policies, remote commands).
// Network flow-control credits are returned only after CTRL accepts a
// packet, so a held receive queue backpressures the fabric, reproducing the
// deadlock hazard the paper attributes to the kHold policy.
#pragma once

#include <array>

#include "net/network.hpp"
#include "niu/ctrl.hpp"
#include "sim/coro.hpp"
#include "sim/fifo.hpp"
#include "sim/kernel.hpp"

namespace sv::niu {

class TxU : public sim::SimObject {
 public:
  /// Formatting overhead per message, in cycles of mem::kBusClock.
  static constexpr sim::Cycles kPerMessageCycles = 2;

  TxU(sim::Kernel& kernel, std::string name, Ctrl& ctrl);

  /// Spawn the transmit process.
  void start();

 private:
  sim::Co<void> loop();

  Ctrl& ctrl_;
  bool started_ = false;
};

class RxU : public sim::SimObject {
 public:
  /// Per-message overhead, in cycles of mem::kBusClock.
  static constexpr sim::Cycles kPerMessageCycles = 2;

  RxU(sim::Kernel& kernel, std::string name, Ctrl& ctrl,
      net::Network& network);

  /// Register with the network and spawn the receive process.
  void start();

  [[nodiscard]] std::size_t buffered() const {
    return vq_[0].size() + vq_[1].size();
  }

 private:
  void deliver(net::Packet&& pkt);
  sim::Co<void> loop();

  Ctrl& ctrl_;
  net::Network& network_;
  std::array<sim::Fifo<net::Packet>, net::kNumPriorities> vq_;
  sim::Signal arrived_;
  bool started_ = false;
};

}  // namespace sv::niu
