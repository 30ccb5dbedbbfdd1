#include "xfer/sp_copy.hpp"

namespace sv::xfer {

SpCopyEngine::SpCopyEngine(sim::Kernel& kernel, std::string name,
                           cpu::Processor& sp, niu::SBiu& sbiu)
    : FwService(kernel, std::move(name), sp, sbiu, kSpCopyReqQ,
                sys::Node::kSpCopyScratch) {}

void SpCopyEngine::bind_queues(sys::Node& node) {
  auto& ctrl = node.niu().ctrl();
  auto bind = [&](unsigned hwq, net::QueueId logical, std::uint32_t base) {
    auto& r = ctrl.rxq(hwq);
    r.enabled = true;
    r.bank = niu::SramBank::kSSram;
    r.base = base;
    r.slots = 64;
    r.slot_bytes = niu::kBasicSlotBytes;
    r.logical = logical;
    r.full_policy = niu::RxFullPolicy::kHold;  // lossless data path
  };
  bind(kSpCopyReqQ, kSpCopyReqL, sys::Node::kSpCopyQueueBase);
  bind(kSpCopyDataQ, kSpCopyDataL,
       sys::Node::kSpCopyQueueBase + sys::Node::kFwQueueStride);
}

void SpCopyEngine::start() {
  sim::spawn(request_loop());
  sim::spawn(data_loop());
}

sim::Co<void> SpCopyEngine::request_loop() {
  for (;;) {
    co_await wait_msg();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    fw::RxMsg msg = co_await read_msg();
    const auto req = msg.as<SpCopyRequest>();

    // Read-packetize-send, one 64-byte chunk at a time, through the
    // ordered command queue (in-order execution keeps each chunk's read
    // ahead of its TagOn send and makes staging reuse safe). The sP paces
    // itself on CTRL's queue-status register so the hardware queue stays
    // shallow — it remains occupied per chunk, the profile the paper
    // reports for approach 2.
    constexpr unsigned kCmdQ = 1;
    constexpr std::size_t kWindow = 8;
    for (std::uint32_t off = 0; off < req.len; off += kSpCopyChunk) {
      const std::uint32_t n = std::min(kSpCopyChunk, req.len - off);
      co_await sp_.work(kHandlerCycles);

      while (co_await sbiu_.cmd_depth(kCmdQ) >= kWindow) {
        sp_.release();
        co_await sbiu_.ctrl().command_progress();
        co_await sp_.acquire();
      }

      niu::Command rd;
      rd.op = niu::CmdOp::kReadApDram;
      rd.addr = req.src + off;
      rd.len = n;
      rd.bank = niu::SramBank::kSSram;
      rd.sram_offset = sys::Node::kSpCopyStaging;
      co_await sbiu_.post(kCmdQ, std::move(rd));

      SpCopyDataHdr hdr;
      hdr.dst = req.dst + off;
      hdr.last = off + n >= req.len ? 1 : 0;
      hdr.completion_queue = req.completion_queue;
      hdr.tag = req.tag;

      niu::Command send_cmd;
      send_cmd.op = niu::CmdOp::kSendMessage;
      send_cmd.dest_node = req.dest_node;
      send_cmd.queue = kSpCopyDataL;
      send_cmd.data = fw::to_bytes(hdr);
      send_cmd.bank = niu::SramBank::kSSram;
      send_cmd.sram_offset = sys::Node::kSpCopyStaging;
      send_cmd.attach_len = n;
      co_await sbiu_.post(kCmdQ, std::move(send_cmd));
    }
    sp_.release();
  }
}

sim::Co<void> SpCopyEngine::data_loop() {
  auto& ctrl = sbiu_.ctrl();
  const unsigned q = kSpCopyDataQ;
  for (;;) {
    while (ctrl.rxq(q).empty()) {
      co_await ctrl.rx_arrival();
    }
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    auto& rq = ctrl.rxq(q);
    const std::uint32_t slot = rq.slot_addr(rq.consumer);
    std::byte buf[niu::kBasicHeaderBytes + sizeof(SpCopyDataHdr) +
                  kSpCopyChunk];
    co_await sbiu_.read_ssram(slot, buf);
    const auto desc = niu::RxDescriptor::decode(buf);
    co_await sbiu_.rx_consumer_update(
        q, static_cast<std::uint16_t>(rq.consumer + 1));

    SpCopyDataHdr hdr{};
    std::memcpy(&hdr, buf + niu::kBasicHeaderBytes, sizeof(SpCopyDataHdr));
    const std::uint32_t n =
        desc.length - static_cast<std::uint32_t>(sizeof(SpCopyDataHdr));

    co_await sp_.work(kHandlerCycles);
    niu::Command wr;
    wr.op = niu::CmdOp::kWriteApDram;
    wr.addr = hdr.dst;
    wr.data.assign(buf + niu::kBasicHeaderBytes + sizeof(SpCopyDataHdr),
                   buf + niu::kBasicHeaderBytes + sizeof(SpCopyDataHdr) + n);
    co_await sbiu_.immediate(std::move(wr));

    if (hdr.last != 0) {
      niu::Command note;
      note.op = niu::CmdOp::kNotifyLocal;
      note.queue = hdr.completion_queue;
      note.src_node = desc.src_node;
      note.data.resize(4);
      std::memcpy(note.data.data(), &hdr.tag, 4);
      co_await sbiu_.immediate(std::move(note));
    }
    sp_.release();
  }
}

}  // namespace sv::xfer
