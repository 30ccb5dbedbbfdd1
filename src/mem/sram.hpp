// NIU SRAM banks.
//
// aSRAM and sSRAM are dual-ported: one port faces a 604 bus (through the
// corresponding BIU), the other faces the NIU's internal bus (IBus, mastered
// by CTRL). Each port serializes its own accesses but the two ports proceed
// independently, exactly the property the NIU exploits to let CTRL stream
// message data while a processor composes the next message.
#pragma once

#include <cstdint>
#include <string>

#include "mem/backing_store.hpp"
#include "mem/bus.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace sv::mem {

class DualPortedSram : public sim::SimObject {
 public:
  enum class Port : std::uint8_t { kBus = 0, kIBus = 1 };

  /// Port time per 8-byte word, in cycles of kBusClock (bus-rate SRAM).
  static constexpr sim::Cycles kAccessCycles = 1;

  struct Params {
    Addr size = 128 * 1024;  // bytes per bank
  };

  DualPortedSram(sim::Kernel& kernel, std::string name, Params params);

  [[nodiscard]] Addr size() const { return params_.size; }

  /// Occupy `port` for the time needed to move `bytes` bytes. Callers pair
  /// this with the functional read()/write() below.
  sim::Co<void> access(Port port, std::uint32_t bytes);

  /// Functional storage (offsets are bank-relative).
  void read(Addr offset, std::span<std::byte> out) const;
  void write(Addr offset, std::span<const std::byte> in);
  /// Backdoor write of what `src` holds at [offset, offset + len), sharing
  /// its whole pages (BackingStore::adopt).
  void adopt(const BackingStore& src, Addr offset, std::size_t len);

  template <typename T>
  [[nodiscard]] T read_scalar(Addr offset) const {
    return store_.read_scalar<T>(offset);
  }
  template <typename T>
  void write_scalar(Addr offset, const T& v) {
    store_.write_scalar<T>(offset, v);
  }

  /// Snapshot state: port busy times plus the bank contents digest.
  void ckpt_save(ckpt::Writer& w) const;

 private:
  Params params_;
  BackingStore store_;
  sim::Semaphore port_sems_[2];
  sim::BusyTracker busy_[2];
};

}  // namespace sv::mem
