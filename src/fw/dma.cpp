#include "fw/dma.hpp"

#include <algorithm>
#include "ckpt/io.hpp"

namespace sv::fw {

DmaEngine::DmaEngine(sim::Kernel& kernel, std::string name,
                     cpu::Processor& sp, niu::SBiu& sbiu)
    : FwService(kernel, std::move(name), sp, sbiu, kScratch),
      done_seen_(kernel) {}

void DmaEngine::start() {
  sim::spawn(loop());
  sim::spawn(done_loop());
}

sim::Co<void> DmaEngine::loop() {
  for (;;) {
    co_await wait_msg(kDmaReqQ);
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    RxMsg msg = co_await read_msg(kDmaReqQ);
    sp_.release();
    co_await handle(msg.as<DmaRequest>());
    trace_handler("dma", h0);
  }
}

sim::Co<void> DmaEngine::done_loop() {
  for (;;) {
    co_await wait_msg(kFwDoneQ);
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    std::byte buf[niu::kBasicHeaderBytes + 8];
    co_await read_head(kFwDoneQ, buf);
    std::uint32_t tag = 0;
    std::memcpy(&tag, buf + niu::kBasicHeaderBytes, 4);
    sp_.release();
    trace_handler("dma.done", h0);
    completed_tags_.push_back(tag);
    done_seen_.pulse();
  }
}

sim::Co<void> DmaEngine::wait_done(std::uint32_t tag) {
  for (;;) {
    auto it =
        std::find(completed_tags_.begin(), completed_tags_.end(), tag);
    if (it != completed_tags_.end()) {
      completed_tags_.erase(it);
      co_return;
    }
    co_await done_seen_;
  }
}

sim::Co<void> DmaEngine::handle(DmaRequest req) {
  if (req.kind == 1) {
    // Pull: ask the node holding the data to push it back to us.
    DmaRequest push = req;
    push.kind = 0;
    push.reply_node = static_cast<std::uint16_t>(node());
    const sim::NodeId holder = req.dest_node;
    push.dest_node = static_cast<std::uint16_t>(node());
    push.sender_done_queue = niu::kNoNotify;
    co_await sp_.acquire();
    co_await sp_.work(kHandlerCycles);
    co_await send(holder, kDmaReqL, to_bytes(push));
    sp_.release();
    co_return;
  }

  // Push: split into page-bounded chunks, ping-pong two staging areas, and
  // keep at most two block transfers in flight.
  const std::uint32_t staging_bytes = 2 * niu::Ctrl::kBlockChunkBytes;
  std::uint32_t issued = 0;
  std::vector<std::uint32_t> tags;

  std::uint64_t src = req.src_addr;
  std::uint64_t dst = req.dst_addr;
  std::uint32_t remaining = req.len;
  while (remaining > 0) {
    const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {remaining, niu::kBlockMaxBytes - (src % niu::kBlockMaxBytes),
         niu::kBlockMaxBytes - (dst % niu::kBlockMaxBytes)}));
    const bool last = n == remaining;

    if (issued >= 2) {
      co_await wait_done(tags[issued - 2]);
    }

    niu::Command cmd;
    cmd.op = niu::CmdOp::kBlockXfer;
    cmd.addr = src;
    cmd.dest_addr = dst;
    cmd.len = n;
    cmd.bank = niu::SramBank::kSSram;
    cmd.sram_offset = kStaging + (issued % 2) * staging_bytes;
    cmd.dest_node = req.dest_node;
    cmd.notify_queue = kFwDoneL;
    cmd.notify_tag = next_tag_++;
    if (last && req.completion_queue != niu::kNoNotify) {
      cmd.remote_notify = true;
      cmd.remote_notify_queue = req.completion_queue;
      cmd.remote_notify_tag = req.completion_tag;
    }
    tags.push_back(cmd.notify_tag);

    co_await sp_.acquire();
    co_await sp_.work(kHandlerCycles);
    co_await sbiu_.post(/*cmdq=*/0, std::move(cmd));
    sp_.release();

    src += n;
    dst += n;
    remaining -= n;
    ++issued;
  }

  // Drain the tail of the pipeline.
  for (std::uint32_t i = issued >= 2 ? issued - 2 : 0; i < issued; ++i) {
    co_await wait_done(tags[i]);
  }

  if (req.sender_done_queue != niu::kNoNotify) {
    niu::Command note;
    note.op = niu::CmdOp::kNotifyLocal;
    note.queue = req.sender_done_queue;
    note.src_node = static_cast<std::uint16_t>(node());
    note.data.resize(4);
    std::memcpy(note.data.data(), &req.sender_done_tag, 4);
    co_await sp_.acquire();
    co_await sbiu_.immediate(std::move(note));
    sp_.release();
  }
}

void DmaEngine::ckpt_save(ckpt::Writer& w) const {
  FwService::ckpt_save(w);
  w.u32(next_tag_);
  w.u64(completed_tags_.size());
  for (const std::uint32_t tag : completed_tags_) {
    w.u32(tag);
  }
}

}  // namespace sv::fw
