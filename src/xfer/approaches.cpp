#include "xfer/approaches.hpp"

#include <cstring>

namespace sv::xfer {

namespace {

/// Approach-1 data message: 16-byte header + up to 64 bytes of data.
struct A1Hdr {
  std::uint64_t dst = 0;
  std::uint32_t n = 0;
  std::uint16_t last = 0;
  std::uint16_t _pad = 0;
};
constexpr std::uint32_t kA1Chunk = 64;

}  // namespace

BlockTransferHarness::BlockTransferHarness(sys::Machine& machine)
    : machine_(machine) {
  for (sim::NodeId n = 0; n < machine_.size(); ++n) {
    auto& node = machine_.node(n);
    endpoints_.push_back(
        std::make_unique<msg::Endpoint>(node.ap(), node.endpoint_config()));
    SpCopyEngine::bind_queues(node);
    sp_copy_.push_back(std::make_unique<SpCopyEngine>(
        machine_.kernel(), 'n' + std::to_string(n) + ".fw.spcopy",
        node.sp(), node.niu().sbiu()));
    sp_copy_.back()->start();
    // Approaches 4/5: cls state kClsBlockPending retries without invoking
    // the S-COMA protocol.
    auto& abiu = node.niu().abiu();
    abiu.set_scoma_reaction(niu::OpClass::kLoad, kClsBlockPending,
                            {true, false});
    abiu.set_scoma_reaction(niu::OpClass::kStore, kClsBlockPending,
                            {true, false});
  }
}

void BlockTransferHarness::init_data(const TransferSpec& spec) {
  ++fill_;
  auto& src_store = machine_.node(spec.sender).dram().store();
  std::vector<std::byte> data(spec.len);
  for (std::uint32_t i = 0; i < spec.len; ++i) {
    data[i] = static_cast<std::byte>((i * 7 + fill_) & 0xFF);
  }
  src_store.write(spec.src, data);
  // Clear the destination so verification is meaningful.
  machine_.node(spec.receiver).dram().store().fill(spec.dst, spec.len,
                                                   std::byte{0});
  // The functional pokes above bypass bus coherence: drop any cached
  // copies left over from earlier transfers on the same addresses.
  machine_.node(spec.sender).cache().purge_range(spec.src, spec.len);
  machine_.node(spec.receiver).cache().purge_range(spec.dst, spec.len);
}

bool BlockTransferHarness::verify_data(const TransferSpec& spec) {
  std::vector<std::byte> got(spec.len);
  machine_.node(spec.receiver).dram().store().read(spec.dst, got);
  for (std::uint32_t i = 0; i < spec.len; ++i) {
    if (got[i] != static_cast<std::byte>((i * 7 + fill_) & 0xFF)) {
      return false;
    }
  }
  return true;
}

// --- Approach 1 ----------------------------------------------------------------

sim::Co<void> BlockTransferHarness::a1_sender(const TransferSpec& spec) {
  auto& ap = machine_.node(spec.sender).ap();
  auto& ep = endpoint(spec.sender);
  const auto map = machine_.addr_map();

  std::byte frame[sizeof(A1Hdr) + kA1Chunk];
  for (std::uint32_t off = 0; off < spec.len; off += kA1Chunk) {
    const std::uint32_t n = std::min(kA1Chunk, spec.len - off);
    A1Hdr hdr;
    hdr.dst = spec.dst + off;
    hdr.n = n;
    hdr.last = off + n >= spec.len ? 1 : 0;
    std::memcpy(frame, &hdr, sizeof(A1Hdr));
    // The aP reads the data itself: one bus crossing into the cache.
    co_await ap.load(spec.src + off,
                     std::span<std::byte>(frame + sizeof(A1Hdr), n));
    // ...and a second crossing when the composed message flushes to SRAM.
    co_await ep.send(map.user0(spec.receiver),
                     std::span<const std::byte>(frame, sizeof(A1Hdr) + n));
  }
}

sim::Co<void> BlockTransferHarness::a1_receiver(const TransferSpec& spec,
                                                sim::OneShot& notified) {
  auto& ap = machine_.node(spec.receiver).ap();
  auto& ep = endpoint(spec.receiver);
  for (;;) {
    msg::Message m = co_await ep.recv();
    A1Hdr hdr{};
    std::memcpy(&hdr, m.data.data(), sizeof(A1Hdr));
    co_await ap.store(hdr.dst, std::span<const std::byte>(
                                   m.data.data() + sizeof(A1Hdr), hdr.n));
    if (hdr.last != 0) {
      break;
    }
  }
  // Push the copied data out of the cache so DRAM holds it (the second
  // receiver-side bus crossing).
  co_await ap.flush_range(spec.dst, spec.len);
  notified.fire();
}

// --- Approach 2 ----------------------------------------------------------------

sim::Co<void> BlockTransferHarness::a2_sender(const TransferSpec& spec) {
  auto& ep = endpoint(spec.sender);
  SpCopyRequest req;
  req.src = spec.src;
  req.dst = spec.dst;
  req.len = spec.len;
  req.dest_node = static_cast<std::uint16_t>(spec.receiver);
  req.completion_queue = msg::AddressMap::kUser0L;
  req.tag = next_tag_++;
  co_await ep.send_raw(spec.sender, kSpCopyReqL, fw::to_bytes(req));
}

// --- Approach 3 ----------------------------------------------------------------

sim::Co<void> BlockTransferHarness::a3_sender(const TransferSpec& spec) {
  auto& ep = endpoint(spec.sender);
  co_await msg::dma_write(ep, machine_.addr_map(), spec.sender,
                          spec.receiver, spec.src, spec.dst, spec.len,
                          msg::AddressMap::kUser0L, next_tag_++);
}

// --- Approaches 4 and 5 -----------------------------------------------------------

sim::Co<void> BlockTransferHarness::a45_sender(const TransferSpec& spec,
                                               bool hardware_cls) {
  // Receiver-side preparation: close the destination lines so reads retry
  // until the data lands (the block-op unit can set cls ranges directly).
  auto& rx_node = machine_.node(spec.receiver);
  {
    auto& rsp = rx_node.sp();
    co_await rsp.acquire();
    co_await rsp.work(fw::FwService::kHandlerCycles);
    niu::Command close;
    close.op = niu::CmdOp::kWriteClsState;
    close.addr = spec.dst;
    close.len = spec.len;
    close.cls_bits = kClsBlockPending;
    co_await rx_node.niu().sbiu().immediate(std::move(close));
    rsp.release();
  }

  // Sender side: chunked block transfers; the first chunk ends at 1/4 of
  // the data and carries the (optimistic) completion notification.
  auto& tx_node = machine_.node(spec.sender);
  auto& sbiu = tx_node.niu().sbiu();
  auto& tsp = tx_node.sp();

  const std::uint32_t quarter = std::max<std::uint32_t>(
      32, (spec.len / 4) & ~31u);

  std::uint32_t off = 0;
  bool first = true;
  while (off < spec.len) {
    const std::uint32_t page_room = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(
            niu::kBlockMaxBytes - ((spec.src + off) % niu::kBlockMaxBytes),
            niu::kBlockMaxBytes - ((spec.dst + off) % niu::kBlockMaxBytes)));
    std::uint32_t n = std::min(spec.len - off, page_room);
    if (first) {
      n = std::min(n, quarter);
    }

    niu::Command cmd;
    cmd.op = niu::CmdOp::kBlockXfer;
    cmd.addr = spec.src + off;
    cmd.dest_addr = spec.dst + off;
    cmd.len = n;
    cmd.bank = niu::SramBank::kSSram;
    cmd.sram_offset = sys::Node::kA45StagingBase;
    cmd.dest_node = spec.receiver;
    // Serialize staging reuse across chunks: each command fences on the
    // completion of all previously issued block operations.
    cmd.fence = true;
    if (hardware_cls) {
      cmd.set_cls = true;                      // approach 5: aBIU extension
      cmd.cls_bits = niu::ABiu::kClsReadWrite;
    } else {
      cmd.chunk_notify = true;                 // approach 4: sP opens lines
    }
    if (first) {
      cmd.remote_notify = true;                // early notification
      cmd.remote_notify_queue = msg::AddressMap::kUser0L;
      cmd.remote_notify_tag = next_tag_++;
    }

    co_await tsp.acquire();
    co_await tsp.work(fw::FwService::kHandlerCycles);
    co_await sbiu.post(/*cmdq=*/1, std::move(cmd));
    tsp.release();

    off += n;
    first = false;
  }
}

// --- Shared receiver plumbing --------------------------------------------------------

sim::Co<void> BlockTransferHarness::wait_notify(sim::NodeId node,
                                                sim::OneShot& notified) {
  (void)node;
  msg::Message m = co_await endpoint(node).recv();
  (void)m;
  notified.fire();
}

sim::Co<void> BlockTransferHarness::consume_data(const TransferSpec& spec,
                                                 sim::Tick delay,
                                                 sim::OneShot& done) {
  auto& ap = machine_.node(spec.receiver).ap();
  if (delay > 0) {
    co_await sim::delay(machine_.kernel(), delay);
  }
  std::byte buf[mem::kLineBytes];
  for (std::uint32_t off = 0; off < spec.len; off += mem::kLineBytes) {
    co_await ap.load(spec.dst + off, buf);
  }
  done.fire();
}

// --- Driver -----------------------------------------------------------------------

TransferResult BlockTransferHarness::run(int approach,
                                         const TransferSpec& spec,
                                         const RunOptions& options) {
  auto& kernel = machine_.kernel();
  auto& snode = machine_.node(spec.sender);
  auto& rnode = machine_.node(spec.receiver);

  init_data(spec);

  TransferResult res;
  res.start = kernel.now();
  const sim::Tick s_ap0 = snode.ap().busy();
  const sim::Tick r_ap0 = rnode.ap().busy();
  const sim::Tick s_sp0 = snode.sp().busy();
  const sim::Tick r_sp0 = rnode.sp().busy();

  sim::OneShot notified(kernel);
  sim::OneShot consumed(kernel);

  switch (approach) {
    case 1:
      snode.ap().run(a1_sender(spec));
      rnode.ap().run(a1_receiver(spec, notified));
      break;
    case 2:
      snode.ap().run(a2_sender(spec));
      rnode.ap().run(wait_notify(spec.receiver, notified));
      break;
    case 3:
      snode.ap().run(a3_sender(spec));
      rnode.ap().run(wait_notify(spec.receiver, notified));
      break;
    case 4:
    case 5:
      sim::spawn(a45_sender(spec, /*hardware_cls=*/approach == 5));
      rnode.ap().run(wait_notify(spec.receiver, notified));
      break;
    default:
      return res;
  }

  if (!sys::run_until(kernel, [&] { return notified.fired(); },
                      res.start + kDeadline)) {
    return res;
  }
  res.notify_time = kernel.now();

  if (options.consume) {
    rnode.ap().run(consume_data(spec, options.consume_delay, consumed));
    if (!sys::run_until(kernel, [&] { return consumed.fired(); },
                        res.start + kDeadline)) {
      return res;
    }
    res.consume_time = kernel.now();
  }

  // Let in-flight tails drain: for approaches 4/5 the notification is
  // optimistic and data keeps arriving afterwards. Wait until both NIUs'
  // command machinery has stayed idle across a settle window.
  for (;;) {
    const bool idle_ok = sys::run_until(
        kernel,
        [&] {
          return snode.niu().ctrl().commands_idle() &&
                 rnode.niu().ctrl().commands_idle();
        },
        res.start + kDeadline);
    if (!idle_ok) {
      return res;
    }
    const sim::Tick settle = kernel.now() + 20 * sim::kMicrosecond;
    sys::run_until(kernel, [&] { return kernel.now() >= settle; },
                   settle + sim::kMicrosecond);
    if (snode.niu().ctrl().commands_idle() &&
        rnode.niu().ctrl().commands_idle()) {
      break;
    }
  }

  res.sender_ap_busy = snode.ap().busy() - s_ap0;
  res.receiver_ap_busy = rnode.ap().busy() - r_ap0;
  res.sender_sp_busy = snode.sp().busy() - s_sp0;
  res.receiver_sp_busy = rnode.sp().busy() - r_sp0;
  res.ok = verify_data(spec);
  return res;
}

}  // namespace sv::xfer
