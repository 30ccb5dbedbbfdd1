#include "mem/sram.hpp"

#include <stdexcept>

#include "ckpt/stats_io.hpp"

namespace sv::mem {

DualPortedSram::DualPortedSram(sim::Kernel& kernel, std::string name,
                               Params params)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      port_sems_{sim::Semaphore(kernel, 1), sim::Semaphore(kernel, 1)} {}

sim::Co<void> DualPortedSram::access(Port port, std::uint32_t bytes) {
  auto& sem = port_sems_[static_cast<int>(port)];
  co_await sem.acquire();
  const sim::Cycles words = (bytes + 7) / 8 > 0 ? (bytes + 7) / 8 : 1;
  const sim::Tick dur = kBusClock.to_ticks(words * kAccessCycles);
  busy_[static_cast<int>(port)].add_busy(dur);
  co_await sim::delay(kernel_, dur);
  sem.release();
}

void DualPortedSram::read(Addr offset, std::span<std::byte> out) const {
  if (offset + out.size() > params_.size) {
    throw std::out_of_range(name() + ": SRAM read out of range");
  }
  store_.read(offset, out);
}

void DualPortedSram::write(Addr offset, std::span<const std::byte> in) {
  if (offset + in.size() > params_.size) {
    throw std::out_of_range(name() + ": SRAM write out of range");
  }
  store_.write(offset, in);
}

void DualPortedSram::adopt(const BackingStore& src, Addr offset,
                           std::size_t len) {
  if (offset + len > params_.size) {
    throw std::out_of_range(name() + ": SRAM write out of range");
  }
  store_.adopt(src, offset, len);
}

void DualPortedSram::ckpt_save(ckpt::Writer& w) const {
  ckpt::save(w, busy_[0]);
  ckpt::save(w, busy_[1]);
  store_.ckpt_save(w);
}

}  // namespace sv::mem
