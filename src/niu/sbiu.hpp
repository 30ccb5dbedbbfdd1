// sBIU: the sP-side bus interface unit.
//
// In the real NIU the sP reaches CTRL, the SRAMs and the aBIU over its own
// 604 bus through this FPGA. The sP is the only master on that bus, so we
// model the sP bus as a constant-latency port: every sBIU operation charges
// a fixed number of sP-bus cycles and then performs the access. This
// preserves what the paper's evaluation cares about — firmware occupancy —
// without simulating a second snooping bus with a single master.
#pragma once

#include "niu/abiu.hpp"
#include "niu/command.hpp"
#include "niu/ctrl.hpp"
#include "sim/coro.hpp"

namespace sv::niu {

class SBiu : public sim::SimObject {
 public:
  // Costs in cycles of the sP's 60x bus, which runs at mem::kBusClock.
  static constexpr sim::Cycles kUncachedOpCycles = 3;  // one load/store
  static constexpr sim::Cycles kSramWordCycles = 1;  // per 8 bytes of sSRAM

  SBiu(sim::Kernel& kernel, std::string name, Ctrl& ctrl, ABiu& abiu);

  [[nodiscard]] Ctrl& ctrl() { return ctrl_; }
  [[nodiscard]] ABiu& abiu() { return abiu_; }

  // --- Immediate command interface (read/update CTRL state synchronously) ---
  sim::Co<void> immediate(Command cmd);
  sim::Co<void> rx_consumer_update(unsigned q, std::uint16_t v);

  // --- Ordered local command queues ---
  sim::Co<void> post(unsigned cmdq, Command cmd);

  /// Read CTRL's command-queue status register (pending depth).
  sim::Co<std::size_t> cmd_depth(unsigned cmdq);

  // --- sSRAM access from the sP ---
  sim::Co<void> read_ssram(std::uint32_t offset, std::span<std::byte> out);

  // --- aBIU-sBIU queues (the forwarded-operation path) ---
  [[nodiscard]] sim::Channel<FwdOp>& numa_ops() { return abiu_.numa_ops(); }
  [[nodiscard]] sim::Channel<FwdOp>& scoma_ops() { return abiu_.scoma_ops(); }

 private:
  sim::Co<void> cost(sim::Cycles cycles);

  Ctrl& ctrl_;
  ABiu& abiu_;
};

}  // namespace sv::niu
