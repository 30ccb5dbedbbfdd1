#include "niu/txu_rxu.hpp"

#include <stdexcept>

#include "fault/fault.hpp"

namespace sv::niu {

TxU::TxU(sim::Kernel& kernel, std::string name, Ctrl& ctrl)
    : sim::SimObject(kernel, std::move(name)), ctrl_(ctrl) {}

void TxU::start() {
  if (started_) {
    throw std::logic_error(name() + ": started twice");
  }
  started_ = true;
  sim::spawn(loop());
}

sim::Co<void> TxU::loop() {
  for (;;) {
    const int q = ctrl_.pick_tx_queue();
    if (q < 0) {
      co_await ctrl_.tx_work();
      continue;
    }
    co_await sim::delay(kernel_, mem::kBusClock.to_ticks(kPerMessageCycles));
    co_await ctrl_.tx_launch(static_cast<unsigned>(q));
  }
}

RxU::RxU(sim::Kernel& kernel, std::string name, Ctrl& ctrl,
         net::Network& network)
    : sim::SimObject(kernel, std::move(name)),
      ctrl_(ctrl),
      network_(network),
      arrived_(kernel) {}

void RxU::start() {
  if (started_) {
    throw std::logic_error(name() + ": started twice");
  }
  started_ = true;
  network_.set_endpoint(ctrl_.node(),
                        [this](net::Packet&& p) { deliver(std::move(p)); });
  sim::spawn(loop());
}

void RxU::deliver(net::Packet&& pkt) {
  vq_[pkt.priority].push_back(std::move(pkt));
  arrived_.pulse();
}

sim::Co<void> RxU::loop() {
  for (;;) {
    while (vq_[net::kPriorityHigh].empty() && vq_[net::kPriorityLow].empty()) {
      co_await arrived_;
    }
    const std::uint8_t prio = !vq_[net::kPriorityHigh].empty()
                                  ? net::kPriorityHigh
                                  : net::kPriorityLow;
    net::Packet pkt = std::move(vq_[prio].front());
    vq_[prio].pop_front();

    if (fault::Injector* inj = kernel_.fault_injector();
        inj != nullptr && inj->rx_overflow(kernel_, ctrl_.node(), pkt.serial)) {
      // Forced Rx-queue overflow: discard at the NIU boundary as if no
      // buffer slot existed, but still free the fabric credit.
      ctrl_.stats().rx_dropped.inc();
      network_.consume_done(ctrl_.node(), prio);
      continue;
    }

    co_await sim::delay(kernel_, mem::kBusClock.to_ticks(kPerMessageCycles));
    co_await ctrl_.rx_deliver(std::move(pkt));
    // Credit back to the fabric only once CTRL has accepted the packet.
    network_.consume_done(ctrl_.node(), prio);
  }
}

}  // namespace sv::niu
