// Reflective-memory emulation (paper section 5, "Extending Default
// Mechanisms"): Shrimp/Memory-Channel-style automatic update.
//
// The aBIU watches stores to a configured DRAM window and captures the
// written data. In firmware mode (this engine) the sP forwards each update
// to every subscribed peer as a remote kWriteApDram; the aBIU also supports
// an all-hardware mode where it composes the remote update itself (see
// ABiu::add_reflect_range) — the paper's "further enhancements to the aBIU"
// variant, useful for comparing firmware vs. hardware implementation cost.
#pragma once

#include "fw/firmware.hpp"
#include "niu/abiu.hpp"

namespace sv::fw {

class ReflectiveEngine final : public FwService {
 public:
  static constexpr std::uint32_t kScratch = 0x0FE0;  // sSRAM, 32 bytes

  struct Params {
    mem::Addr local_base = 0;
    mem::Addr size = 0;
    std::vector<niu::ABiu::ReflectPeer> peers;
    FwQueueMap queues;
  };

  ReflectiveEngine(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
                   niu::SBiu& sbiu, Params params, Costs costs = {});

  void start() override;

  [[nodiscard]] const sim::Counter& updates_forwarded() const {
    return events_;
  }

 private:
  sim::Co<void> loop();
  Params params_;
};

}  // namespace sv::fw
