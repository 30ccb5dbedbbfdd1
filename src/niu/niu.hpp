// The complete NIU card: CTRL + aBIU + sBIU + TxU/RxU + the three SRAM
// banks, assembled and wired (paper Figure 2).
#pragma once

#include <memory>

#include "mem/bus.hpp"
#include "mem/cls_sram.hpp"
#include "mem/sram.hpp"
#include "net/network.hpp"
#include "niu/abiu.hpp"
#include "niu/ctrl.hpp"
#include "niu/sbiu.hpp"
#include "niu/txu_rxu.hpp"

namespace sv::niu {

class Niu {
 public:
  /// `cls` must cover the node's S-COMA range.
  Niu(sim::Kernel& kernel, const std::string& name, sim::NodeId node,
      mem::MemBus& ap_bus, net::Network& network, mem::Addr asram_bytes,
      mem::Addr ssram_bytes, mem::ClsSram::Params cls);

  /// Spawn all NIU processes. Call once after construction.
  void start();

  [[nodiscard]] Ctrl& ctrl() { return *ctrl_; }
  [[nodiscard]] ABiu& abiu() { return *abiu_; }
  [[nodiscard]] SBiu& sbiu() { return *sbiu_; }
  [[nodiscard]] mem::DualPortedSram& asram() { return *asram_; }
  [[nodiscard]] mem::DualPortedSram& ssram() { return *ssram_; }
  [[nodiscard]] mem::DualPortedSram& sram_of(SramBank bank) {
    return bank == SramBank::kASram ? *asram_ : *ssram_;
  }
  [[nodiscard]] mem::ClsSram& cls() { return *cls_; }

 private:
  std::unique_ptr<mem::DualPortedSram> asram_;
  std::unique_ptr<mem::DualPortedSram> ssram_;
  std::unique_ptr<mem::ClsSram> cls_;
  std::unique_ptr<Ctrl> ctrl_;
  std::unique_ptr<ABiu> abiu_;
  std::unique_ptr<SBiu> sbiu_;
  std::unique_ptr<TxU> txu_;
  std::unique_ptr<RxU> rxu_;
};

}  // namespace sv::niu
