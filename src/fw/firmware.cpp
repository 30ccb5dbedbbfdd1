#include "fw/firmware.hpp"

#include "ckpt/io.hpp"

namespace sv::fw {

FwService::FwService(sim::Kernel& kernel, std::string name,
                     cpu::Processor& sp, niu::SBiu& sbiu,
                     std::uint32_t scratch)
    : sim::SimObject(kernel, std::move(name)),
      sp_(sp),
      sbiu_(sbiu),
      scratch_(scratch) {}

void FwService::trace_handler(const char* what, sim::Tick start) {
  trace::Tracer* tr = kernel_.tracer();
  if (tr == nullptr || now() < start) {
    return;
  }
  if (trace_track_ == trace::kNoTrack) {
    trace_track_ = tr->track_for(name(), "fw");
  }
  tr->span(trace_track_, what, start, now());
}

sim::Co<void> FwService::wait_msg(unsigned hwq) {
  auto& ctrl = sbiu_.ctrl();
  while (ctrl.rxq(hwq).empty()) {
    co_await ctrl.rx_arrival();
  }
}

sim::Co<RxMsg> FwService::read_msg(unsigned hwq) {
  auto& q = sbiu_.ctrl().rxq(hwq);
  RxMsg msg;
  const std::uint32_t slot = q.slot_addr(q.consumer);
  std::byte hdr[niu::kBasicHeaderBytes];
  co_await sbiu_.read_ssram(slot, hdr);
  msg.desc = niu::RxDescriptor::decode(hdr);
  if (msg.desc.length > 0) {
    msg.data.resize(msg.desc.length);
    co_await sbiu_.read_ssram(slot + niu::kBasicHeaderBytes, msg.data);
  }
  co_await sbiu_.rx_consumer_update(
      hwq, static_cast<std::uint16_t>(q.consumer + 1));
  events_.inc();
  co_return msg;
}

sim::Co<void> FwService::read_head(unsigned hwq,
                                   std::span<std::byte> buf) {
  auto& q = sbiu_.ctrl().rxq(hwq);
  co_await sbiu_.read_ssram(q.slot_addr(q.consumer), buf);
  co_await sbiu_.rx_consumer_update(
      hwq, static_cast<std::uint16_t>(q.consumer + 1));
}

sim::Co<void> FwService::send(sim::NodeId dest, net::QueueId q,
                              std::span<const std::byte> data,
                              std::uint8_t priority) {
  niu::Command cmd;
  cmd.op = niu::CmdOp::kSendMessage;
  cmd.dest_node = dest;
  cmd.queue = q;
  cmd.priority = priority;
  cmd.data.assign(data.begin(), data.end());
  co_await sbiu_.immediate(std::move(cmd));
}

sim::Co<void> FwService::read_ap(mem::Addr addr, std::span<std::byte> out) {
  niu::Command cmd;
  cmd.op = niu::CmdOp::kReadApDram;
  cmd.addr = addr;
  cmd.len = static_cast<std::uint32_t>(out.size());
  cmd.bank = niu::SramBank::kSSram;
  cmd.sram_offset = scratch_;
  co_await sbiu_.immediate(std::move(cmd));
  co_await sbiu_.read_ssram(scratch_, out);
}

sim::Co<void> FwService::write_ap(mem::Addr addr,
                                  std::span<const std::byte> in) {
  niu::Command cmd;
  cmd.op = niu::CmdOp::kWriteApDram;
  cmd.addr = addr;
  cmd.data.assign(in.begin(), in.end());
  co_await sbiu_.immediate(std::move(cmd));
}

void FwService::ckpt_save(ckpt::Writer& w) const { w.u64(events_.value()); }

}  // namespace sv::fw
