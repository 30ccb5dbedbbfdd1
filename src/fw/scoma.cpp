#include "fw/scoma.hpp"

#include "niu/abiu.hpp"
#include <algorithm>
#include "ckpt/io.hpp"
#include "sim/crc32.hpp"

namespace sv::fw {

ScomaEngine::ScomaEngine(sim::Kernel& kernel, std::string name,
                         cpu::Processor& sp, niu::SBiu& sbiu, Params params)
    : FwService(kernel, std::move(name), sp, sbiu, kScratch),
      params_(params),
      acks_(kernel) {}

void ScomaEngine::start() {
  sim::spawn(client_loop());
  sim::spawn(demand_loop());
  sim::spawn(home_loop());
}

sim::NodeId ScomaEngine::home_of(mem::Addr a) const {
  return static_cast<sim::NodeId>(((a - niu::kScomaBase) / kPageBytes) %
                                  params_.num_nodes);
}

void ScomaEngine::enable_hw_miss_send() {
  sbiu_.abiu().set_hw_miss_send([this](const niu::FwdOp& op) {
    ScomaMsg msg;
    msg.kind = niu::classify(op.op) == niu::OpClass::kLoad
                   ? ScomaMsg::kReadReq
                   : ScomaMsg::kWriteReq;
    msg.node = static_cast<std::uint16_t>(node());
    msg.addr = op.addr;
    if (msg.kind == ScomaMsg::kReadReq) {
      sstats_.read_misses.inc();
    } else {
      sstats_.write_misses.inc();
    }
    net::Packet pkt;
    pkt.src = node();
    pkt.dest = home_of(op.addr);
    pkt.dest_queue = kScomaReqL;
    pkt.priority = net::kPriorityLow;
    const auto bytes = to_bytes(msg);
    pkt.payload.assign(bytes.begin(), bytes.end());
    return pkt;
  });
}

void ScomaEngine::init_cls() {
  // O(1) regardless of region size: install the home-ownership map as the
  // SRAM's power-on default instead of poking every line. Everything is
  // value-captured (home_of is pure in these params), so the function
  // outlives the engine if teardown order ever changes.
  const std::size_t num_nodes = params_.num_nodes;
  const sim::NodeId self = node();
  sbiu_.ctrl().cls().set_default(
      [num_nodes, self](mem::Addr a) -> std::uint8_t {
        const auto home = static_cast<sim::NodeId>(
            ((a - niu::kScomaBase) / kPageBytes) % num_nodes);
        return home == self ? niu::ABiu::kClsReadWrite
                            : niu::ABiu::kClsInvalid;
      });
}

ScomaEngine::Dir& ScomaEngine::dir_of(mem::Addr line) {
  auto [it, inserted] = dirs_.try_emplace(line);
  if (inserted) {
    it->second.owner = static_cast<std::uint16_t>(node());  // home starts RW
  }
  return it->second;
}

sim::Co<void> ScomaEngine::set_local_cls(mem::Addr line, std::uint8_t cls) {
  niu::Command cmd;
  cmd.op = niu::CmdOp::kWriteClsState;
  cmd.addr = line;
  cmd.len = mem::kLineBytes;
  cmd.cls_bits = cls;
  co_await sbiu_.immediate(std::move(cmd));
}

sim::Co<void> ScomaEngine::flush_local(mem::Addr line) {
  niu::Command cmd;
  cmd.op = niu::CmdOp::kBusFlush;
  cmd.addr = line;
  co_await sbiu_.immediate(std::move(cmd));
}

// --- Client side --------------------------------------------------------------

sim::Co<void> ScomaEngine::client_loop() {
  auto& ops = sbiu_.scoma_ops();
  for (;;) {
    niu::FwdOp op = co_await ops.pop();
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles + kHandlerCycles);
    ScomaMsg msg;
    msg.kind = niu::classify(op.op) == niu::OpClass::kLoad ? ScomaMsg::kReadReq
                                                      : ScomaMsg::kWriteReq;
    msg.node = static_cast<std::uint16_t>(node());
    msg.addr = op.addr;
    if (msg.kind == ScomaMsg::kReadReq) {
      sstats_.read_misses.inc();
    } else {
      sstats_.write_misses.inc();
    }
    co_await send(home_of(op.addr), kScomaReqL, to_bytes(msg));
    sp_.release();
    trace_handler("scoma.miss", h0);
  }
}

sim::Co<void> ScomaEngine::demand_loop() {
  for (;;) {
    co_await wait_msg(kScomaRspQ);
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    std::byte buf[niu::kBasicHeaderBytes + sizeof(ScomaMsg) +
                  mem::kLineBytes];
    co_await read_head(kScomaRspQ, buf);
    const auto desc = niu::RxDescriptor::decode(buf);
    ScomaMsg msg{};
    std::memcpy(&msg, buf + niu::kBasicHeaderBytes, sizeof(ScomaMsg));

    switch (msg.kind) {
      case ScomaMsg::kInval: {
        co_await sp_.work(kHandlerCycles);
        // Close the line before flushing the cache: otherwise the aP can
        // refill a stale copy in the window between flush and cls update.
        co_await set_local_cls(msg.addr, niu::ABiu::kClsInvalid);
        co_await flush_local(msg.addr);
        ScomaMsg ack;
        ack.kind = ScomaMsg::kAck;
        ack.node = static_cast<std::uint16_t>(node());
        ack.addr = msg.addr;
        co_await send(desc.src_node, kScomaRspL, to_bytes(ack),
                      net::kPriorityHigh);
        break;
      }
      case ScomaMsg::kRecallShare:
      case ScomaMsg::kRecallInval: {
        co_await sp_.work(kHandlerCycles);
        // Demote the cls state before flushing so the aP cannot slip a
        // stale refill (or a silent store) into the demotion window.
        co_await set_local_cls(msg.addr,
                               msg.kind == ScomaMsg::kRecallShare
                                   ? niu::ABiu::kClsReadOnly
                                   : niu::ABiu::kClsInvalid);
        co_await flush_local(msg.addr);
        std::byte line[mem::kLineBytes];
        co_await read_ap(msg.addr, line);
        ScomaMsg ack;
        ack.kind = ScomaMsg::kAckData;
        ack.node = static_cast<std::uint16_t>(node());
        ack.addr = msg.addr;
        co_await send(desc.src_node, kScomaRspL, to_bytes(ack, line),
                      net::kPriorityHigh);
        break;
      }
      case ScomaMsg::kAck:
      case ScomaMsg::kAckData: {
        AckInfo info;
        info.kind = msg.kind;
        info.node = msg.node;
        info.addr = msg.addr;
        info.data.assign(buf + niu::kBasicHeaderBytes + sizeof(ScomaMsg),
                         buf + niu::kBasicHeaderBytes + sizeof(ScomaMsg) +
                             (desc.length - sizeof(ScomaMsg)));
        acks_.push(std::move(info));
        break;
      }
      default:
        break;
    }
    sp_.release();
    trace_handler("scoma.demand", h0);
  }
}

// --- Home side ----------------------------------------------------------------

sim::Co<void> ScomaEngine::home_loop() {
  for (;;) {
    co_await wait_msg(kScomaReqQ);
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    RxMsg rx = co_await read_msg(kScomaReqQ);
    sp_.release();
    co_await serve_request(rx.as<ScomaMsg>());
    trace_handler("scoma.home", h0);
  }
}

sim::Co<void> ScomaEngine::recall_owner(Dir& dir, mem::Addr line,
                                        bool to_shared) {
  const std::uint16_t owner = dir.owner;
  dir.owner = kNoOwner;
  sstats_.recalls.inc();
  if (owner == node()) {
    // The home itself holds the line RW: flush the aP cache so DRAM is
    // current and demote our own cls state.
    co_await sp_.acquire();
    co_await sp_.work(kHandlerCycles);
    co_await set_local_cls(line, to_shared ? niu::ABiu::kClsReadOnly
                                           : niu::ABiu::kClsInvalid);
    co_await flush_local(line);
    sp_.release();
    if (to_shared) {
      dir.sharers.insert(static_cast<std::uint16_t>(node()));
    }
    co_return;
  }

  ScomaMsg recall;
  recall.kind =
      to_shared ? ScomaMsg::kRecallShare : ScomaMsg::kRecallInval;
  recall.node = static_cast<std::uint16_t>(node());
  recall.addr = line;
  co_await sp_.acquire();
  co_await sp_.work(kHandlerCycles);
  co_await send(owner, kScomaRspL, to_bytes(recall), net::kPriorityHigh);
  sp_.release();

  // Collect the data ack (the demand loop routes it to us). The sP is free
  // while we wait. Unrelated acks are set aside and requeued afterwards.
  std::vector<AckInfo> deferred;
  for (;;) {
    AckInfo ack = co_await acks_.pop();
    if (ack.kind == ScomaMsg::kAckData && ack.addr == line) {
      co_await sp_.acquire();
      co_await sp_.work(kHandlerCycles);
      co_await write_ap(line, ack.data);
      sp_.release();
      break;
    }
    deferred.push_back(std::move(ack));
  }
  for (auto& d : deferred) {
    acks_.push(std::move(d));
  }
  if (to_shared) {
    dir.sharers.insert(owner);
  }
}

sim::Co<void> ScomaEngine::invalidate_sharers(Dir& dir, mem::Addr line,
                                              std::uint16_t except) {
  unsigned expected = 0;
  for (const std::uint16_t s : dir.sharers) {
    if (s == except) {
      continue;
    }
    sstats_.invalidations.inc();
    if (s == node()) {
      co_await sp_.acquire();
      co_await sp_.work(kHandlerCycles);
      co_await set_local_cls(line, niu::ABiu::kClsInvalid);
      co_await flush_local(line);
      sp_.release();
      continue;
    }
    ScomaMsg inval;
    inval.kind = ScomaMsg::kInval;
    inval.node = static_cast<std::uint16_t>(node());
    inval.addr = line;
    co_await sp_.acquire();
    co_await sp_.work(kHandlerCycles);
    co_await send(s, kScomaRspL, to_bytes(inval), net::kPriorityHigh);
    sp_.release();
    ++expected;
  }
  std::vector<AckInfo> deferred;
  while (expected > 0) {
    AckInfo ack = co_await acks_.pop();
    if (ack.kind == ScomaMsg::kAck && ack.addr == line) {
      --expected;
    } else {
      deferred.push_back(std::move(ack));
    }
  }
  for (auto& d : deferred) {
    acks_.push(std::move(d));
  }
  dir.sharers.clear();
}

sim::Co<void> ScomaEngine::grant(mem::Addr line, std::uint16_t to,
                                 std::uint8_t cls) {
  sstats_.grants.inc();
  if (to == node()) {
    co_await sp_.acquire();
    co_await sp_.work(kHandlerCycles);
    co_await set_local_cls(line, cls);
    sp_.release();
    co_return;
  }
  std::byte data[mem::kLineBytes];
  co_await sp_.acquire();
  co_await sp_.work(kHandlerCycles);
  co_await read_ap(line, data);

  niu::Command wr;
  wr.op = niu::CmdOp::kWriteApDram;
  wr.addr = line;
  wr.data.assign(data, data + mem::kLineBytes);
  wr.set_cls = true;
  wr.cls_bits = cls;
  wr.src_node = static_cast<std::uint16_t>(node());
  net::Packet pkt;
  pkt.src = node();
  pkt.dest = to;
  pkt.dest_queue = net::kRemoteCmdQueue;
  pkt.priority = net::kPriorityHigh;
  pkt.payload = niu::encode_remote(wr);
  co_await sbiu_.ctrl().inject(std::move(pkt));
  sp_.release();
}

sim::Co<void> ScomaEngine::serve_request(const ScomaMsg& req) {
  Dir& dir = dir_of(req.addr);
  const auto self = static_cast<std::uint16_t>(node());

  if (req.kind == ScomaMsg::kReadReq) {
    if (dir.owner != kNoOwner) {
      if (dir.owner == req.node) {
        co_return;  // stale request: requester already owns the line
      }
      co_await recall_owner(dir, req.addr, /*to_shared=*/true);
    }
    co_await grant(req.addr, req.node, niu::ABiu::kClsReadOnly);
    dir.sharers.insert(req.node);
    co_return;
  }

  if (req.kind == ScomaMsg::kWriteReq) {
    if (dir.owner != kNoOwner) {
      if (dir.owner == req.node) {
        co_return;  // stale: already exclusive
      }
      co_await recall_owner(dir, req.addr, /*to_shared=*/false);
    }
    co_await invalidate_sharers(dir, req.addr, req.node);
    // If the home granted itself RO earlier it is in sharers and was not
    // excepted; make sure our own cls is clean when granting remotely.
    if (req.node != self) {
      co_await sp_.acquire();
      co_await set_local_cls(req.addr, niu::ABiu::kClsInvalid);
      co_await flush_local(req.addr);
      sp_.release();
    }
    co_await grant(req.addr, req.node, niu::ABiu::kClsReadWrite);
    dir.owner = req.node;
    co_return;
  }
}

// --- ChunkOpener -----------------------------------------------------------------

ChunkOpener::ChunkOpener(sim::Kernel& kernel, std::string name,
                         cpu::Processor& sp, niu::SBiu& sbiu,
                         std::uint8_t open_bits)
    : FwService(kernel, std::move(name), sp, sbiu, kScratch),
      open_bits_(open_bits) {}

void ChunkOpener::start() { sim::spawn(loop()); }

sim::Co<void> ChunkOpener::loop() {
  for (;;) {
    co_await wait_msg(kChunkArrivalQ);
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    RxMsg msg = co_await read_msg(kChunkArrivalQ);
    std::uint64_t addr = 0;
    std::uint32_t len = 0;
    std::memcpy(&addr, msg.data.data(), 8);
    std::memcpy(&len, msg.data.data() + 8, 4);
    co_await sp_.work(kHandlerCycles);
    niu::Command cmd;
    cmd.op = niu::CmdOp::kWriteClsState;
    cmd.addr = addr;
    cmd.len = len;
    cmd.cls_bits = open_bits_;
    co_await sbiu_.immediate(std::move(cmd));
    sp_.release();
    trace_handler("chunk.open", h0);
  }
}

void ScomaEngine::ckpt_save(ckpt::Writer& w) const {
  FwService::ckpt_save(w);
  w.u64(sstats_.read_misses.value());
  w.u64(sstats_.write_misses.value());
  w.u64(sstats_.recalls.value());
  w.u64(sstats_.invalidations.value());
  w.u64(sstats_.grants.value());
  std::vector<mem::Addr> lines;
  lines.reserve(dirs_.size());
  for (const auto& [line, dir] : dirs_) {
    (void)dir;
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  std::uint32_t crc = 0;
  for (const mem::Addr line : lines) {
    const Dir& dir = dirs_.at(line);
    crc = sim::crc32(std::as_bytes(std::span(&line, 1)), crc);
    const std::uint16_t owner = dir.owner;
    crc = sim::crc32(std::as_bytes(std::span(&owner, 1)), crc);
    for (const std::uint16_t sharer : dir.sharers) {  // std::set: sorted
      crc = sim::crc32(std::as_bytes(std::span(&sharer, 1)), crc);
    }
  }
  w.u64(lines.size());
  w.u32(crc);
}

}  // namespace sv::fw
