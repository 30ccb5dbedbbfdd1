#include "niu/abiu.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace sv::niu {

OpClass classify(mem::BusOp op) {
  switch (op) {
    case mem::BusOp::kRead:
    case mem::BusOp::kReadSingle:
      return OpClass::kLoad;
    case mem::BusOp::kRWITM:
    case mem::BusOp::kKill:
    case mem::BusOp::kWriteSingle:
      return OpClass::kStore;
    case mem::BusOp::kWriteLine:
    case mem::BusOp::kFlush:
      return OpClass::kWriteback;
  }
  return OpClass::kLoad;
}

ABiu::ABiu(sim::Kernel& kernel, std::string name, Ctrl& ctrl,
           mem::MemBus& bus)
    : sim::SimObject(kernel, std::move(name)),
      ctrl_(ctrl),
      bus_(bus),
      bus_id_(bus.attach(this)),
      numa_ops_(kernel),
      scoma_ops_(kernel),
      reflect_ops_(kernel) {
  // Default NUMA policy: loads are retried until firmware supplies the
  // data; stores are absorbed and forwarded (posted writes).
  numa_table_[static_cast<unsigned>(OpClass::kLoad)] = {true, true};
  numa_table_[static_cast<unsigned>(OpClass::kStore)] = {false, true};
  numa_table_[static_cast<unsigned>(OpClass::kWriteback)] = {false, false};

  // Default S-COMA reaction table (MSI-flavoured):
  //   Invalid:   loads and stores miss -> retry + forward
  //   ReadOnly:  loads hit; stores need an upgrade -> retry + forward
  //   ReadWrite: everything hits
  //   Pending:   transaction in flight -> retry, already forwarded
  for (unsigned c = 0; c < static_cast<unsigned>(OpClass::kCount); ++c) {
    for (unsigned b = 0; b < 16; ++b) {
      scoma_table_[c][b] = {};
    }
  }
  auto& loads = scoma_table_[static_cast<unsigned>(OpClass::kLoad)];
  auto& stores = scoma_table_[static_cast<unsigned>(OpClass::kStore)];
  loads[kClsInvalid] = {true, true};
  loads[kClsPending] = {true, false};
  stores[kClsInvalid] = {true, true};
  stores[kClsReadOnly] = {true, true};
  stores[kClsPending] = {true, false};
}

void ABiu::set_scoma_reaction(OpClass cls, std::uint8_t bits, Reaction r) {
  scoma_table_[static_cast<unsigned>(cls)][bits & 0x0F] = r;
}

void ABiu::set_numa_reaction(OpClass cls, Reaction r) {
  numa_table_[static_cast<unsigned>(cls)] = r;
}

// --- Address decode -----------------------------------------------------------

bool ABiu::in_niu_window(mem::Addr a) const {
  return a >= kNiuBase && a < kNiuBase + kNiuWindowSpan;
}

bool ABiu::in_numa(mem::Addr a) const {
  return a >= kNumaBase && a < kNumaBase + kNumaSize;
}

mem::SnoopResult ABiu::bus_snoop(const mem::BusRequest& req) {
  if (in_niu_window(req.addr)) {
    return snoop_niu_window(req);
  }
  if (in_numa(req.addr)) {
    return snoop_numa(req);
  }
  if (ctrl_.cls().covers(req.addr)) {
    return snoop_scoma(req);
  }
  return {};
}

bool ABiu::bus_snoop_stable(const mem::BusRequest& req) const {
  // snoop_niu_window is a pure decode (kAccept with a static latency, or
  // ignore); snoop_numa and snoop_scoma mutate pending-op state and can
  // answer kRetry, so their regions are never stable.
  return in_niu_window(req.addr) ||
         (!in_numa(req.addr) && !ctrl_.cls().covers(req.addr));
}

mem::SnoopResult ABiu::snoop_niu_window(const mem::BusRequest& req) {
  const mem::Addr off = req.addr - kNiuBase;
  if (off < kAsramWindowOffset + ctrl_.sram(SramBank::kASram).size()) {
    const bool read = mem::op_reads_data(req.op);
    return {mem::SnoopAction::kAccept,
            read ? kSramReadLatency : kSramWriteLatency};
  }
  if (off >= kExpressTxWindowOffset && off < kExpressRxWindowOffset) {
    if (req.op == mem::BusOp::kWriteSingle) {
      return {mem::SnoopAction::kAccept, kSramWriteLatency};
    }
    return {};
  }
  if (off >= kExpressRxWindowOffset && off < kPtrWindowOffset) {
    if (req.op == mem::BusOp::kReadSingle) {
      return {mem::SnoopAction::kAccept, kExpressRxLatency};
    }
    return {};
  }
  if (off >= kPtrWindowOffset && off < kSysRegWindowOffset) {
    if (req.op == mem::BusOp::kWriteSingle) {
      return {mem::SnoopAction::kAccept, kSramWriteLatency};
    }
    return {};
  }
  if (off >= kSysRegWindowOffset && off < kNiuWindowSpan) {
    return {mem::SnoopAction::kAccept, kRegopLatency};
  }
  return {};
}

mem::SnoopResult ABiu::snoop_numa(const mem::BusRequest& req) {
  const OpClass c = classify(req.op);
  const Reaction r = numa_table_[static_cast<unsigned>(c)];
  const mem::Addr line = mem::line_base(req.addr);

  if (c == OpClass::kLoad) {
    auto it = numa_pending_.find(line);
    if (it != numa_pending_.end() && it->second.ready) {
      // Firmware supplied the data: stop retrying, we respond.
      return {mem::SnoopAction::kAccept, kSuppliedLoadLatency};
    }
    if (r.forward && it == numa_pending_.end()) {
      PendingLoad pl;
      pl.token = next_token_++;
      numa_pending_.emplace(line, pl);
      numa_ops_.push(FwdOp{req.op, line, mem::kLineBytes, pl.token, {}});
      stats_.numa_forwards.inc();
    }
    if (r.retry) {
      stats_.numa_retries.inc();
      return {mem::SnoopAction::kRetry, 0};
    }
    // Misconfigured table (load neither retried nor supplied): absorb and
    // return zeros rather than leaving the bus unanswered.
    return {mem::SnoopAction::kAccept, kSuppliedLoadLatency};
  }

  // Stores / writebacks: optionally retried; otherwise absorbed (posted)
  // and the captured data forwarded to firmware.
  if (r.retry) {
    stats_.numa_retries.inc();
    return {mem::SnoopAction::kRetry, 0};
  }
  return {mem::SnoopAction::kAccept, kSramWriteLatency};
}

mem::SnoopResult ABiu::snoop_scoma(const mem::BusRequest& req) {
  stats_.scoma_checks.inc();
  const std::uint8_t bits = ctrl_.cls().peek(req.addr);
  const OpClass c = classify(req.op);
  const Reaction r = scoma_table_[static_cast<unsigned>(c)][bits];
  const mem::Addr line = mem::line_base(req.addr);

  if (r.forward && scoma_pending_.insert(line).second) {
    FwdOp fwd{req.op, line, mem::kLineBytes, 0, {}};
    if (hw_miss_composer_) {
      // Hardware miss send: compose and inject the protocol request
      // directly; the local sP never sees the miss.
      sim::spawn(hw_miss_send(hw_miss_composer_(fwd)));
    } else {
      scoma_ops_.push(std::move(fwd));
    }
    stats_.scoma_forwards.inc();
  }
  if (r.retry) {
    stats_.scoma_retries.inc();
    return {mem::SnoopAction::kRetry, 0};
  }
  // Lines the node holds read-only must not be cached Exclusive: assert
  // SHD so the aP cache fills them Shared and a later store raises an
  // upgrade bus operation the cls check can intercept. Tracked lines get
  // the same treatment so every store surfaces on the bus for dirty
  // marking (a silent E->M upgrade would escape the tracker).
  if (c == OpClass::kLoad &&
      (bits == kClsReadOnly || in_tracked(req.addr))) {
    return {mem::SnoopAction::kShared, 0};
  }
  return {};  // the memory controller serves it
}

void ABiu::add_reflect_range(mem::Addr base, mem::Addr size, bool hw_mode,
                             std::vector<ReflectPeer> peers) {
  reflect_ranges_.push_back(
      ReflectRange{base, size, hw_mode, std::move(peers)});
}

void ABiu::bus_observe(const mem::BusRequest& req,
                       const mem::BusResult& res) {
  (void)res;
  const OpClass c = classify(req.op);
  // Write-intent ops and real writebacks mark tracked lines dirty; a
  // flush broadcast carries no modification and must not.
  if ((c == OpClass::kStore ||
       (c == OpClass::kWriteback && req.op != mem::BusOp::kFlush)) &&
      in_tracked(req.addr)) {
    auto& cls = ctrl_.cls();
    const std::uint8_t bits = cls.peek(req.addr);
    if ((bits & kClsDirty) == 0) {
      sim::spawn(cls.write_state(mem::line_base(req.addr),
                                 bits | kClsDirty));
    }
  }
  if (!mem::op_writes_data(req.op) || reflect_ranges_.empty()) {
    return;
  }
  for (const ReflectRange& range : reflect_ranges_) {
    if (req.addr < range.base || req.addr >= range.base + range.size) {
      continue;
    }
    std::vector<std::byte> data(req.wdata, req.wdata + req.size);
    if (range.hw_mode) {
      // All-hardware reflective memory: the aBIU composes the remote
      // update itself, no firmware involvement.
      sim::spawn(hw_reflect(range, req.addr, std::move(data)));
    } else {
      reflect_ops_.push(
          FwdOp{req.op, req.addr, req.size, 0, std::move(data)});
    }
    return;
  }
}

sim::Co<void> ABiu::hw_reflect(const ReflectRange& range, mem::Addr addr,
                               std::vector<std::byte> data) {
  for (const ReflectPeer& peer : range.peers) {
    Command wr;
    wr.op = CmdOp::kWriteApDram;
    wr.addr = peer.remote_base + (addr - range.base);
    wr.src_node = static_cast<std::uint16_t>(ctrl_.node());
    wr.data = data;

    net::Packet pkt;
    pkt.src = ctrl_.node();
    pkt.dest = peer.node;
    pkt.dest_queue = net::kRemoteCmdQueue;
    pkt.priority = net::kPriorityLow;
    pkt.payload = encode_remote(wr);
    co_await ctrl_.inject(std::move(pkt));
  }
}

void ABiu::enable_write_tracking(mem::Addr base, mem::Addr size) {
  auto& cls = ctrl_.cls();
  if (!cls.covers(base) || !cls.covers(base + size - 1)) {
    throw std::invalid_argument(
        name() + ": tracked range must lie inside the clsSRAM region");
  }
  for (mem::Addr a = mem::line_base(base); a < base + size;
       a += mem::kLineBytes) {
    cls.poke(a, kClsReadWrite);
  }
  track_ranges_.push_back(TrackRange{base, size});
}

bool ABiu::in_tracked(mem::Addr a) const {
  for (const TrackRange& t : track_ranges_) {
    if (a >= t.base && a < t.base + t.size) {
      return true;
    }
  }
  return false;
}

sim::Co<void> ABiu::hw_miss_send(net::Packet pkt) {
  co_await ctrl_.inject(std::move(pkt));
}

void ABiu::cls_updated(mem::Addr addr, std::uint32_t len) {
  if (len == 0) {
    return;
  }
  const mem::Addr first = mem::line_base(addr);
  const mem::Addr last = mem::line_base(addr + len - 1);
  for (mem::Addr a = first; a <= last; a += mem::kLineBytes) {
    scoma_pending_.erase(a);
  }
}

// --- Data-phase handling ---------------------------------------------------------

void ABiu::bus_read_data(const mem::BusRequest& req,
                         std::span<std::byte> out) {
  if (in_numa(req.addr)) {
    const mem::Addr line = mem::line_base(req.addr);
    auto it = numa_pending_.find(line);
    if (it != numa_pending_.end() && it->second.ready) {
      const std::size_t off = req.addr - line;
      std::memcpy(out.data(), it->second.data.data() + off,
                  std::min(out.size(), mem::kLineBytes - off));
      numa_pending_.erase(it);
      stats_.supplied_loads.inc();
    } else {
      std::fill(out.begin(), out.end(), std::byte{0});
    }
    return;
  }

  const mem::Addr off = req.addr - kNiuBase;
  if (off < ctrl_.sram(SramBank::kASram).size()) {
    ctrl_.sram(SramBank::kASram).read(off, out);
    stats_.sram_reads.inc();
    return;
  }
  if (off >= kExpressRxWindowOffset && off < kPtrWindowOffset) {
    const unsigned q = static_cast<unsigned>(
        (off - kExpressRxWindowOffset) / kExpressRxStride);
    const std::uint64_t entry = ctrl_.express_rx_pop(q % kNumRxQueues);
    if (entry == Ctrl::kExpressEmpty) {
      stats_.express_empty_loads.inc();
    } else {
      stats_.express_loads.inc();
    }
    std::byte bytes[8];
    std::memcpy(bytes, &entry, 8);
    std::memcpy(out.data(), bytes, std::min<std::size_t>(out.size(), 8));
    return;
  }
  if (off >= kSysRegWindowOffset && off < kNiuWindowSpan) {
    // The system registers are the sP's: the aP reads zero.
    const std::uint64_t v = 0;
    std::memcpy(out.data(), &v, std::min<std::size_t>(out.size(), 8));
    return;
  }
  std::fill(out.begin(), out.end(), std::byte{0});
}

void ABiu::bus_write_data(const mem::BusRequest& req,
                          std::span<const std::byte> in) {
  if (in_numa(req.addr)) {
    // Absorbed NUMA store: capture the data and forward it to firmware —
    // unless the reaction table filters this operation class out.
    const Reaction r = numa_table_[static_cast<unsigned>(classify(req.op))];
    if (r.forward) {
      FwdOp fwd{req.op, req.addr, static_cast<std::uint32_t>(in.size()), 0,
                std::vector<std::byte>(in.begin(), in.end())};
      numa_ops_.push(std::move(fwd));
      stats_.numa_forwards.inc();
    }
    return;
  }

  const mem::Addr off = req.addr - kNiuBase;
  if (off < ctrl_.sram(SramBank::kASram).size()) {
    ctrl_.sram(SramBank::kASram).write(off, in);
    stats_.sram_writes.inc();
    return;
  }
  if (off >= kExpressTxWindowOffset && off < kExpressRxWindowOffset) {
    const mem::Addr enc = off - kExpressTxWindowOffset;
    const unsigned q = static_cast<unsigned>(enc >> kExpressTxQueueShift) %
                       kNumTxQueues;
    const auto vdest =
        static_cast<std::uint8_t>((enc >> kExpressTxDestShift) & 0xFF);
    const auto extra =
        static_cast<std::uint8_t>((enc >> kExpressTxByteShift) & 0xFF);
    std::byte entry[8] = {};
    entry[0] = static_cast<std::byte>(vdest);
    entry[1] = static_cast<std::byte>(extra);
    std::memcpy(entry + 4, in.data(), std::min<std::size_t>(in.size(), 4));
    std::uint64_t packed = 0;
    std::memcpy(&packed, entry, 8);
    stats_.express_stores.inc();
    sim::spawn(ctrl_.express_tx_push(q, packed));
    return;
  }
  if (off >= kPtrWindowOffset && off < kSysRegWindowOffset) {
    const mem::Addr enc = off - kPtrWindowOffset;
    const auto kind = static_cast<PtrKind>((enc / 0x100) & 0x1);
    const unsigned q = static_cast<unsigned>((enc / 0x10) & 0xF);
    std::uint32_t value = 0;
    std::memcpy(&value, in.data(), std::min<std::size_t>(in.size(), 4));
    stats_.pointer_updates.inc();
    if (kind == PtrKind::kTxProducer) {
      ctrl_.tx_producer_update(q, static_cast<std::uint16_t>(value));
    } else {
      ctrl_.rx_consumer_update(q, static_cast<std::uint16_t>(value));
    }
    return;
  }
  // Anything else, the system-register window included, is ignored: the
  // system registers are the sP's.
}

// --- Bus mastering for CTRL --------------------------------------------------

sim::Co<void> ABiu::master_read(mem::Addr addr, std::span<std::byte> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const mem::Addr a = addr + done;
    const std::size_t remaining = out.size() - done;
    mem::BusRequest req;
    if (a % mem::kLineBytes == 0 && remaining >= mem::kLineBytes) {
      req.op = mem::BusOp::kRead;
      req.size = mem::kLineBytes;
    } else {
      req.op = mem::BusOp::kReadSingle;
      const std::size_t to_boundary = 8 - (a % 8);
      req.size = static_cast<std::uint32_t>(
          std::min<std::size_t>({remaining, to_boundary, 8}));
    }
    req.addr = a;
    req.rdata = out.data() + done;
    co_await bus_.transact_retry(bus_id_, req);
    stats_.master_reads.inc();
    done += req.size;
  }
}

sim::Co<void> ABiu::master_write(mem::Addr addr,
                                 std::span<const std::byte> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const mem::Addr a = addr + done;
    const std::size_t remaining = in.size() - done;
    mem::BusRequest req;
    if (a % mem::kLineBytes == 0 && remaining >= mem::kLineBytes) {
      req.op = mem::BusOp::kWriteLine;
      req.size = mem::kLineBytes;
    } else {
      req.op = mem::BusOp::kWriteSingle;
      const std::size_t to_boundary = 8 - (a % 8);
      req.size = static_cast<std::uint32_t>(
          std::min<std::size_t>({remaining, to_boundary, 8}));
    }
    req.addr = a;
    req.wdata = in.data() + done;
    co_await bus_.transact_retry(bus_id_, req);
    stats_.master_writes.inc();
    done += req.size;
  }
}

sim::Co<void> ABiu::master_kill(mem::Addr line) {
  mem::BusRequest req;
  req.op = mem::BusOp::kKill;
  req.addr = mem::line_base(line);
  req.size = 0;
  co_await bus_.transact_retry(bus_id_, req);
  stats_.master_kills.inc();
}

sim::Co<void> ABiu::master_flush(mem::Addr line) {
  mem::BusRequest req;
  req.op = mem::BusOp::kFlush;
  req.addr = mem::line_base(line);
  req.size = mem::kLineBytes;
  co_await bus_.transact_retry(bus_id_, req);
}

void ABiu::supply_load(std::uint32_t tag, std::span<const std::byte> data) {
  for (auto& [line, pl] : numa_pending_) {
    if (pl.token == tag) {
      pl.ready = true;
      std::memcpy(pl.data.data(), data.data(),
                  std::min<std::size_t>(data.size(), mem::kLineBytes));
      return;
    }
  }
  // Late supply for a load that is no longer pending: drop it.
}

}  // namespace sv::niu
