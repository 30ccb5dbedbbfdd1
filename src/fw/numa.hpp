// NUMA shared-memory firmware (paper section 5).
//
// aP accesses in the 1 GB NUMA window are forwarded by the aBIU to the sP
// (loads are retried on the bus until firmware supplies the data; stores
// are absorbed and posted). Firmware maps each page to a home node
// (page-interleaved) whose DRAM holds the backing storage, and runs a
// simple remote-access protocol:
//
//   client: load miss  -> ReadReq to home; reply data -> kSupplyLoad
//           store      -> Write (with data) to home
//   home:   ReadReq    -> read backing DRAM, ReadRsp (high priority)
//           Write      -> write backing DRAM
//
// There is no caching and hence no coherence traffic — exactly the
// mechanism's contract. Regions of the window can be claimed by other
// engines (e.g. reflective memory) through the handler registry.
#pragma once

#include <functional>
#include <map>

#include "fw/firmware.hpp"
#include "niu/regs.hpp"

namespace sv::fw {

/// Backing storage for NUMA address A lives at the home node's DRAM
/// address kNumaBackingBase + (A - kNumaBase).
inline constexpr mem::Addr kNumaBackingBase = 0x1000'0000;

struct NumaMsg {
  enum Kind : std::uint8_t { kReadReq = 0, kReadRsp = 1, kWrite = 2 };
  std::uint8_t kind = kReadReq;
  std::uint8_t _pad = 0;
  std::uint16_t requester = 0;
  std::uint32_t token = 0;
  std::uint64_t addr = 0;
  // kWrite/kReadRsp: data bytes follow the struct on the wire.
};

class NumaEngine final : public FwService {
 public:
  static constexpr std::uint32_t kScratch = 0x0F00;  // sSRAM, 64 bytes
  static constexpr std::uint32_t kPageBytes = 4096;  // home interleave

  struct Params {
    std::size_t num_nodes = 2;
  };

  /// A claimed sub-window handler: receives forwarded ops instead of the
  /// NUMA protocol.
  using RegionHandler = std::function<sim::Co<void>(const niu::FwdOp&)>;

  NumaEngine(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
             niu::SBiu& sbiu, Params params);

  void start() override;

  /// Route forwarded ops in [base, base+size) to `handler` instead.
  void claim_region(mem::Addr base, mem::Addr size, RegionHandler handler);

  [[nodiscard]] sim::NodeId home_of(mem::Addr a) const;
  [[nodiscard]] mem::Addr backing_of(mem::Addr a) const {
    return kNumaBackingBase + (a - niu::kNumaBase);
  }

  [[nodiscard]] const sim::Counter& remote_loads() const {
    return remote_loads_;
  }
  [[nodiscard]] const sim::Counter& remote_stores() const {
    return remote_stores_;
  }

  /// Snapshot state: base event counter plus remote load/store counts.
  /// (claims_ is construction-time wiring, not dynamic state.)
  void ckpt_save(ckpt::Writer& w) const override;

 private:
  sim::Co<void> client_loop();   // consumes aBIU-forwarded operations
  sim::Co<void> home_loop();     // services ReadReq/Write messages
  sim::Co<void> reply_loop();    // services ReadRsp messages

  sim::Co<void> handle_op(niu::FwdOp op);

  Params params_;
  struct Claim {
    mem::Addr base;
    mem::Addr size;
    RegionHandler handler;
  };
  std::vector<Claim> claims_;
  sim::Counter remote_loads_;
  sim::Counter remote_stores_;
};

}  // namespace sv::fw
