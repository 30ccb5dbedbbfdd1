#include "niu/niu.hpp"

namespace sv::niu {

Niu::Niu(sim::Kernel& kernel, const std::string& name, sim::NodeId node,
         mem::MemBus& ap_bus, net::Network& network, mem::Addr asram_bytes,
         mem::Addr ssram_bytes, mem::ClsSram::Params cls) {
  asram_ = std::make_unique<mem::DualPortedSram>(
      kernel, name + ".aSRAM", mem::DualPortedSram::Params{asram_bytes});
  ssram_ = std::make_unique<mem::DualPortedSram>(
      kernel, name + ".sSRAM", mem::DualPortedSram::Params{ssram_bytes});
  cls_ = std::make_unique<mem::ClsSram>(kernel, name + ".clsSRAM", cls);
  ctrl_ = std::make_unique<Ctrl>(kernel, name + ".CTRL", node, *asram_,
                                 *ssram_, *cls_);
  abiu_ = std::make_unique<ABiu>(kernel, name + ".aBIU", *ctrl_, ap_bus);
  sbiu_ = std::make_unique<SBiu>(kernel, name + ".sBIU", *ctrl_, *abiu_);
  txu_ = std::make_unique<TxU>(kernel, name + ".TxU", *ctrl_);
  rxu_ = std::make_unique<RxU>(kernel, name + ".RxU", *ctrl_, network);
  ctrl_->bind(abiu_.get(), &network);
}

void Niu::start() {
  ctrl_->start();
  txu_->start();
  rxu_->start();
}

}  // namespace sv::niu
