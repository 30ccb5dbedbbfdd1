// DRAM / memory-controller model: the addressed responder for main-memory
// ranges on the node's memory bus.
#pragma once

#include <string_view>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/bus.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"

namespace sv::mem {

class DramCtrl : public sim::SimObject, public BusDevice {
 public:
  struct Range {
    Addr base = 0;
    Addr size = 0;
    [[nodiscard]] bool contains(Addr a) const {
      return a >= base && a < base + size;
    }
  };

  struct Params {
    std::vector<Range> ranges;       // address ranges this controller claims
    sim::Cycles read_latency = 6;    // bus cycles to first beat (~90 ns)
    sim::Cycles write_latency = 2;   // posting latency
  };

  DramCtrl(sim::Kernel& kernel, std::string name, Params params);

  // BusDevice:
  [[nodiscard]] std::string_view device_name() const override {
    return name();
  }
  SnoopResult bus_snoop(const BusRequest& req) override;
  void bus_read_data(const BusRequest& req,
                     std::span<std::byte> out) override;
  void bus_write_data(const BusRequest& req,
                      std::span<const std::byte> in) override;

  // Bypass contract: the snoop is a pure range check.
  [[nodiscard]] bool bus_snoop_stable(const BusRequest&) const override {
    return true;
  }

  /// Functional backdoor for initialization and result checking ("the OS").
  [[nodiscard]] BackingStore& store() { return store_; }
  [[nodiscard]] const BackingStore& store() const { return store_; }

  [[nodiscard]] bool claims(Addr a) const;

  [[nodiscard]] const sim::Counter& reads() const { return reads_; }
  [[nodiscard]] const sim::Counter& writes() const { return writes_; }

  /// Snapshot state: access counters raw, contents as the store's digest.
  void ckpt_save(ckpt::Writer& w) const;

 private:
  Params params_;
  BackingStore store_;
  sim::Counter reads_;
  sim::Counter writes_;
};

}  // namespace sv::mem
