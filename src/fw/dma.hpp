// DMA engine firmware (paper section 5).
//
// The aP requests a DMA by sending a Basic message to the sP's DMA queue.
// Firmware splits the transfer into page-bounded block operations and posts
// chained kBlockXfer commands, ping-ponging between two sSRAM staging areas
// so the block engines stay busy across page boundaries. Completion is
// signalled to the receiver ("am_store"-style message into its regular
// queue) and optionally back to the sender.
//
// A remote-read DMA is implemented by forwarding the request to the remote
// sP, which performs the push in the opposite direction.
#pragma once

#include <cstdint>
#include <deque>

#include "fw/firmware.hpp"
#include "niu/block_ops.hpp"

namespace sv::fw {

/// Wire format of a DMA request message (aP -> sP, or sP -> remote sP).
struct DmaRequest {
  std::uint64_t src_addr = 0;   // DRAM address at the data's source node
  std::uint64_t dst_addr = 0;   // DRAM address at the destination node
  std::uint32_t len = 0;
  std::uint16_t dest_node = 0;  // where the data lands
  std::uint16_t kind = 0;       // 0 = write/push, 1 = read/pull
  net::QueueId completion_queue = niu::kNoNotify;  // receiver-side notify
  std::uint16_t _pad0 = 0;
  std::uint32_t completion_tag = 0;
  net::QueueId sender_done_queue = niu::kNoNotify;  // sender-side notify
  std::uint16_t reply_node = 0;  // pull: node the data must be pushed to
  std::uint32_t sender_done_tag = 0;

  /// Block-op alignment contract (see niu::BlockEngines).
  [[nodiscard]] bool aligned() const {
    return src_addr % mem::kLineBytes == 0 &&
           dst_addr % mem::kLineBytes == 0 && len % mem::kLineBytes == 0;
  }
};

class DmaEngine final : public FwService {
 public:
  /// The sSRAM scratch slot (64 bytes) sits just below the staging areas.
  static constexpr std::uint32_t scratch_offset(std::uint32_t staging_offset) {
    return staging_offset - 64;
  }

  struct Params {
    std::uint32_t staging_offset = 0x10000;  // sSRAM: 2 areas x 2 buffers
    std::uint32_t chunk = niu::kBlockMaxBytes;
    unsigned cmdq = 0;
    FwQueueMap queues;
  };

  DmaEngine(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
            niu::SBiu& sbiu, Params params, Costs costs = {});

  void start() override;

  [[nodiscard]] const sim::Counter& requests() const { return events_; }

  /// Snapshot state: base event counter, the tag allocator, and any
  /// completion tags seen but not yet consumed by wait_done().
  void ckpt_save(ckpt::Writer& w) const override;

 private:
  sim::Co<void> loop();
  sim::Co<void> done_loop();
  sim::Co<void> handle(DmaRequest req);
  sim::Co<void> wait_done(std::uint32_t tag);

  Params params_;
  std::deque<std::uint32_t> completed_tags_;
  sim::Signal done_seen_;
  std::uint32_t next_tag_ = 0x40000000;
};

}  // namespace sv::fw
