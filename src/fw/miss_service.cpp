#include "fw/miss_service.hpp"
#include "ckpt/io.hpp"

namespace sv::fw {

MissService::MissService(sim::Kernel& kernel, std::string name,
                         cpu::Processor& sp, niu::SBiu& sbiu)
    : FwService(kernel, std::move(name), sp, sbiu, niu::kMissRxQueue,
                kScratch) {}

void MissService::start() { sim::spawn(loop()); }

void MissService::register_queue(net::QueueId logical, DramQueueDesc desc) {
  queues_[logical] = Entry{desc, 0};
}

sim::Co<void> MissService::loop() {
  for (;;) {
    co_await wait_msg();
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    RxMsg msg = co_await read_msg();

    auto it = queues_.find(msg.desc.logical);
    if (it == queues_.end()) {
      unregistered_.inc();
      sp_.release();
      trace_handler("miss.unregistered", h0);
      continue;
    }
    Entry& e = it->second;

    // Full check against the aP-maintained consumer word in DRAM.
    std::byte cword[4];
    co_await read_ap(e.desc.base + 4, cword);
    std::uint32_t consumer = 0;
    std::memcpy(&consumer, cword, 4);
    if (e.producer - consumer >= e.desc.slots) {
      overflowed_.inc();
      sp_.release();
      trace_handler("miss.overflow", h0);
      continue;
    }

    co_await sp_.work(kHandlerCycles);
    // Write descriptor + data into the DRAM slot, then publish producer.
    std::vector<std::byte> slot(niu::kBasicHeaderBytes + msg.data.size());
    msg.desc.encode(slot.data());
    std::memcpy(slot.data() + niu::kBasicHeaderBytes, msg.data.data(),
                msg.data.size());
    co_await write_ap(e.desc.slot_addr(e.producer), slot);
    ++e.producer;
    std::byte pword[4];
    std::memcpy(pword, &e.producer, 4);
    co_await write_ap(e.desc.base, pword);
    sp_.release();
    trace_handler("miss.spill", h0);
  }
}

void MissService::ckpt_save(ckpt::Writer& w) const {
  FwService::ckpt_save(w);
  w.u64(unregistered_.value());
  w.u64(overflowed_.value());
  w.u64(queues_.size());
  for (const auto& [logical, entry] : queues_) {  // std::map: key order
    w.u32(logical);
    w.u32(entry.producer);
  }
}

}  // namespace sv::fw
