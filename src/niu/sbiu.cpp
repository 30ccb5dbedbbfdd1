#include "niu/sbiu.hpp"

namespace sv::niu {

SBiu::SBiu(sim::Kernel& kernel, std::string name, Ctrl& ctrl, ABiu& abiu)
    : sim::SimObject(kernel, std::move(name)), ctrl_(ctrl), abiu_(abiu) {}

sim::Co<void> SBiu::cost(sim::Cycles cycles) {
  co_await sim::delay(kernel_, mem::kBusClock.to_ticks(cycles));
}

sim::Co<void> SBiu::immediate(Command cmd) {
  co_await cost(kUncachedOpCycles);
  co_await ctrl_.exec_immediate(std::move(cmd));
}

sim::Co<std::uint64_t> SBiu::read_reg(SysReg r) {
  co_await cost(kUncachedOpCycles);
  co_return ctrl_.read_reg(r);
}

sim::Co<void> SBiu::write_reg(SysReg r, std::uint64_t v) {
  co_await cost(kUncachedOpCycles);
  ctrl_.write_reg(r, v);
}

sim::Co<std::uint16_t> SBiu::rx_producer(unsigned q) {
  co_await cost(kUncachedOpCycles);
  co_return ctrl_.rxq(q).producer;
}

sim::Co<std::uint16_t> SBiu::tx_consumer(unsigned q) {
  co_await cost(kUncachedOpCycles);
  co_return ctrl_.txq(q).consumer;
}

sim::Co<void> SBiu::rx_consumer_update(unsigned q, std::uint16_t v) {
  co_await cost(kUncachedOpCycles);
  ctrl_.rx_consumer_update(q, v);
}

sim::Co<void> SBiu::tx_producer_update(unsigned q, std::uint16_t v) {
  co_await cost(kUncachedOpCycles);
  ctrl_.tx_producer_update(q, v);
}

sim::Co<void> SBiu::post(unsigned cmdq, Command cmd) {
  co_await cost(kUncachedOpCycles);
  ctrl_.post_command(cmdq, std::move(cmd));
}

sim::Co<std::size_t> SBiu::cmd_depth(unsigned cmdq) {
  co_await cost(kUncachedOpCycles);
  co_return ctrl_.pending_commands(cmdq);
}

sim::Co<void> SBiu::read_ssram(std::uint32_t offset,
                               std::span<std::byte> out) {
  const auto words = static_cast<sim::Cycles>((out.size() + 7) / 8);
  co_await cost(kUncachedOpCycles + kSramWordCycles * words);
  co_await ctrl_.sram(SramBank::kSSram)
      .access(mem::DualPortedSram::Port::kBus,
              static_cast<std::uint32_t>(out.size()));
  ctrl_.sram(SramBank::kSSram).read(offset, out);
}

sim::Co<void> SBiu::write_ssram(std::uint32_t offset,
                                std::span<const std::byte> in) {
  const auto words = static_cast<sim::Cycles>((in.size() + 7) / 8);
  co_await cost(kUncachedOpCycles + kSramWordCycles * words);
  co_await ctrl_.sram(SramBank::kSSram)
      .access(mem::DualPortedSram::Port::kBus,
              static_cast<std::uint32_t>(in.size()));
  ctrl_.sram(SramBank::kSSram).write(offset, in);
}

}  // namespace sv::niu
