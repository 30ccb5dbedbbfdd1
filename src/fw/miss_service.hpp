// Rx-queue-cache miss service (paper section 4).
//
// The NIU caches a small number of logical receive queues in hardware; a
// message for an unbound logical queue is diverted to the miss/overflow
// queue, and this firmware writes it to the queue's DRAM-resident image.
// The aP library polls the DRAM-resident queue directly (msg::DramQueue).
//
// DRAM-resident queue layout (base must be 64-byte aligned):
//   base + 0   u32 producer (written by firmware)
//   base + 4   u32 consumer (written by the aP library)
//   base + 64  slots (slot_bytes each: 8-byte RxDescriptor + data)
#pragma once

#include <map>

#include "fw/firmware.hpp"

namespace sv::fw {

struct DramQueueDesc {
  mem::Addr base = 0;
  std::uint16_t slots = 0;
  std::uint16_t slot_bytes = niu::kBasicSlotBytes;

  [[nodiscard]] mem::Addr slot_addr(std::uint32_t producer) const {
    return base + 64 + static_cast<mem::Addr>(producer % slots) * slot_bytes;
  }
};

class MissService final : public FwService {
 public:
  static constexpr std::uint32_t kScratch = 0x0FC0;  // sSRAM, 32 bytes

  MissService(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
              niu::SBiu& sbiu);

  void start() override;

  /// Register the DRAM-resident image of logical queue `logical`.
  void register_queue(net::QueueId logical, DramQueueDesc desc);

  [[nodiscard]] const sim::Counter& serviced() const { return events_; }
  [[nodiscard]] const sim::Counter& unregistered() const {
    return unregistered_;
  }
  [[nodiscard]] const sim::Counter& overflowed() const { return overflowed_; }

  /// Snapshot state: base event counter, the unregistered/overflow counts,
  /// and every registered queue's firmware-side producer cursor.
  void ckpt_save(ckpt::Writer& w) const override;

 private:
  sim::Co<void> loop();

  struct Entry {
    DramQueueDesc desc;
    std::uint32_t producer = 0;  // firmware-side cached copy
  };
  std::map<net::QueueId, Entry> queues_;
  sim::Counter unregistered_;
  sim::Counter overflowed_;
};

}  // namespace sv::fw
