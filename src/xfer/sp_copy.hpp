// Approach-2 firmware: sP-managed block transfer (paper section 6).
//
// "The aP issues a request to the local sP, which takes over the
// responsibility of reading, packetizing, and sending out the packets.
// These packets are received by the destination sP, which moves the data
// into its final memory locations. ... command queue commands allow the
// data to be transferred directly between aP DRAM and aSRAM, and TagOn
// messages pick up the data and ship it across the network."
//
// Per 64-byte chunk the sending sP issues a kReadApDram into sSRAM staging
// and a kSendMessage whose SRAM attach (the TagOn path) carries the data;
// the receiving sP lands each chunk with a kWriteApDram. Both processors
// therefore never touch the data, but the sPs are occupied per chunk —
// exactly the occupancy profile the paper reports for approach 2.
#pragma once

#include "fw/firmware.hpp"
#include "sys/node.hpp"

namespace sv::xfer {

inline constexpr net::QueueId kSpCopyReqL = 0x0F06;
inline constexpr net::QueueId kSpCopyDataL = 0x0F07;
inline constexpr unsigned kSpCopyReqQ = 3;   // hardware rx queue
inline constexpr unsigned kSpCopyDataQ = 4;  // hardware rx queue
inline constexpr std::uint32_t kSpCopyChunk = 64;

struct SpCopyRequest {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint32_t len = 0;
  std::uint16_t dest_node = 0;
  net::QueueId completion_queue = 0;
  std::uint32_t tag = 0;
};

struct SpCopyDataHdr {
  std::uint64_t dst = 0;
  std::uint16_t last = 0;
  net::QueueId completion_queue = 0;
  std::uint32_t tag = 0;
};

class SpCopyEngine final : public fw::FwService {
 public:
  SpCopyEngine(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
               niu::SBiu& sbiu);

  /// Bind the engine's two receive queues on a node (call once per node,
  /// any time after Node::setup()).
  static void bind_queues(sys::Node& node);

  void start() override;

 private:
  sim::Co<void> request_loop();
  sim::Co<void> data_loop();
};

}  // namespace sv::xfer
