#include "niu/ctrl.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "ckpt/stats_io.hpp"
#include "niu/block_ops.hpp"

namespace sv::niu {

namespace {

const char* cmd_name(CmdOp op) {
  switch (op) {
    case CmdOp::kWriteSram: return "WriteSram";
    case CmdOp::kWriteApDram: return "WriteApDram";
    case CmdOp::kReadApDram: return "ReadApDram";
    case CmdOp::kSendMessage: return "SendMessage";
    case CmdOp::kWriteClsState: return "WriteClsState";
    case CmdOp::kBusKill: return "BusKill";
    case CmdOp::kBusFlush: return "BusFlush";
    case CmdOp::kSupplyLoad: return "SupplyLoad";
    case CmdOp::kBlockRead: return "BlockRead";
    case CmdOp::kBlockTx: return "BlockTx";
    case CmdOp::kBlockXfer: return "BlockXfer";
    case CmdOp::kBlockDiffTx: return "BlockDiffTx";
    case CmdOp::kCopySram: return "CopySram";
    case CmdOp::kNotifyLocal: return "NotifyLocal";
    case CmdOp::kWriteReg: return "WriteReg";
  }
  return "Cmd?";
}

}  // namespace

Ctrl::Ctrl(sim::Kernel& kernel, std::string name, sim::NodeId node,
           mem::DualPortedSram& asram, mem::DualPortedSram& ssram,
           mem::ClsSram& cls)
    : sim::SimObject(kernel, std::move(name)),
      node_(node),
      asram_(asram),
      ssram_(ssram),
      cls_(cls),
      cmds_drained_(kernel),
      cmd_progress_(kernel),
      ibus_(kernel, 1),
      net_port_(kernel, 1),
      tx_work_(kernel),
      rx_arrival_(kernel),
      queue_space_(kernel),
      sp_intr_(kernel) {
  for (auto& c : local_cmds_) {
    c = std::make_unique<sim::Channel<Command>>(kernel);
  }
  remote_cmds_ = std::make_unique<sim::Channel<Command>>(kernel);
  blocks_ = std::make_unique<BlockEngines>(*this);
  txq_depth_track_.fill(trace::kNoTrack);
  rxq_depth_track_.fill(trace::kNoTrack);
  rxq_res_track_.fill(trace::kNoTrack);
}

// --- Tracing -----------------------------------------------------------------

trace::TrackId Ctrl::trace_lane(trace::TrackId& cache, std::string lane,
                                std::string_view category,
                                bool counter) const {
  if (cache == trace::kNoTrack) {
    const std::string& n = name();
    const std::string_view process =
        std::string_view(n).substr(0, n.find('.'));
    cache = kernel_.tracer()->track(process, lane, category, counter);
  }
  return cache;
}

void Ctrl::trace_tx_depth(unsigned q) {
  if (trace::Tracer* tr = kernel_.tracer()) {
    tr->counter(trace_lane(txq_depth_track_[q],
                           "txq" + std::to_string(q), "queue",
                           /*counter=*/true),
                now(), txq_[q].occupancy());
  }
}

void Ctrl::trace_rx_depth(unsigned q) {
  if (trace::Tracer* tr = kernel_.tracer()) {
    tr->counter(trace_lane(rxq_depth_track_[q],
                           "rxq" + std::to_string(q), "queue",
                           /*counter=*/true),
                now(), rxq_[q].occupancy());
  }
}

void Ctrl::trace_rx_consumed(unsigned q, unsigned count) {
  auto& resident = rx_resident_[q];
  trace::Tracer* tr = kernel_.tracer();
  while (count > 0 && !resident.empty()) {
    const RxResident r = resident.front();
    resident.pop_front();
    --count;
    if (tr != nullptr) {
      tr->span(trace_lane(rxq_res_track_[q],
                          "rxq" + std::to_string(q) + ".res", "queue"),
               "resident", r.since, now(), r.flow);
    }
  }
}

Ctrl::~Ctrl() = default;

void Ctrl::bind(ApBusPort* ap_port, net::Network* network) {
  ap_port_ = ap_port;
  network_ = network;
}

void Ctrl::start() {
  if (started_) {
    throw std::logic_error(name() + ": started twice");
  }
  if (ap_port_ == nullptr || network_ == nullptr) {
    throw std::logic_error(name() + ": start() before bind()");
  }
  started_ = true;
  for (auto& c : local_cmds_) {
    sim::spawn(command_loop(*c, stats_.cmds_local));
  }
  sim::spawn(command_loop(*remote_cmds_, stats_.cmds_remote));
}

// --- IBus --------------------------------------------------------------------

sim::Co<void> Ctrl::ibus_access(SramBank bank, std::uint32_t bytes) {
  co_await ibus_.acquire();
  const sim::Tick t0 = now();
  co_await sram(bank).access(mem::DualPortedSram::Port::kIBus, bytes);
  stats_.ibus_busy.add_busy(now() - t0);
  if (trace::Tracer* tr = kernel_.tracer()) {
    // Span sum mirrors ibus_busy exactly (the semaphore prevents overlap).
    tr->span(trace_lane(ibus_track_, "NIU.IBus", "niu"), "ibus", t0, now());
  }
  ibus_.release();
}

sim::Co<void> Ctrl::write_shadow(mem::Addr offset, std::uint32_t value) {
  co_await ibus_access(SramBank::kASram, 4);
  asram_.write_scalar<std::uint32_t>(offset, value);
}

// --- Pointer interface ----------------------------------------------------------

void Ctrl::tx_producer_update(unsigned q, std::uint16_t value) {
  TxQueueState& t = txq_.at(q);
  if (!t.enabled || t.shutdown) {
    return;
  }
  // The new producer may not move backwards or claim more slots than exist.
  const std::uint16_t advance = static_cast<std::uint16_t>(value - t.producer);
  const std::uint16_t new_occupancy =
      static_cast<std::uint16_t>(value - t.consumer);
  if (advance > t.slots || new_occupancy > t.slots) {
    shutdown_tx_queue(q);
    return;
  }
  t.producer = value;
  trace_tx_depth(q);
  tx_work_.pulse();
}

void Ctrl::rx_consumer_update(unsigned q, std::uint16_t value) {
  RxQueueState& r = rxq_.at(q);
  if (!r.enabled) {
    return;
  }
  const std::uint16_t advance = static_cast<std::uint16_t>(value - r.consumer);
  if (advance > r.occupancy()) {
    return;  // bogus update: ignore (cannot free slots that are not used)
  }
  r.consumer = value;
  trace_rx_consumed(q, advance);
  trace_rx_depth(q);
  queue_space_.pulse();
}

// --- Express engines -------------------------------------------------------------

sim::Co<void> Ctrl::express_tx_push(unsigned q, std::uint64_t entry) {
  TxQueueState& t = txq_.at(q);
  if (!t.enabled || t.shutdown || !t.express) {
    co_return;
  }
  while (t.full()) {
    co_await queue_space_;
  }
  const std::uint32_t slot = t.slot_addr(t.producer);
  co_await ibus_access(t.bank, kExpressSlotBytes);
  sram(t.bank).write_scalar<std::uint64_t>(slot, entry);
  ++t.producer;
  stats_.express_pushed.inc();
  trace_tx_depth(q);
  tx_work_.pulse();
}

std::uint64_t Ctrl::express_rx_pop(unsigned q) {
  RxQueueState& r = rxq_.at(q);
  if (!r.enabled || !r.express || r.empty()) {
    return kExpressEmpty;
  }
  const std::uint32_t slot = r.slot_addr(r.consumer);
  const auto entry = sram(r.bank).read_scalar<std::uint64_t>(slot);
  ++r.consumer;
  stats_.express_popped.inc();
  trace_rx_consumed(q, 1);
  trace_rx_depth(q);
  queue_space_.pulse();
  return entry;
}

// --- Translation and protection ------------------------------------------------------

sim::Co<std::optional<XlatEntry>> Ctrl::translate(std::uint16_t and_mask,
                                                  std::uint16_t or_mask,
                                                  std::uint16_t vdest) {
  stats_.xlat_lookups.inc();
  const std::uint16_t idx = static_cast<std::uint16_t>(
      (vdest & and_mask) | or_mask);
  if (idx >= xlat_entries_) {
    co_return std::nullopt;
  }
  co_await ibus_access(SramBank::kSSram, XlatEntry::kBytes);
  std::byte raw[XlatEntry::kBytes];
  ssram_.read(xlat_base_ + idx * XlatEntry::kBytes, raw);
  const XlatEntry e = XlatEntry::decode(raw);
  if (!e.valid) {
    co_return std::nullopt;
  }
  co_return e;
}

void Ctrl::shutdown_tx_queue(unsigned q) {
  txq_.at(q).shutdown = true;
  stats_.protection_violations.inc();
  if (trace::Tracer* tr = kernel_.tracer()) {
    tr->instant(trace_lane(txu_track_, "NIU.TxU", "niu"),
                "txq" + std::to_string(q) + " shut down (protection)", now());
  }
  raise_interrupt(kIntrProtection);
}

// --- Transmit path ---------------------------------------------------------------------

int Ctrl::pick_tx_queue() {
  for (int cls = kNumPriorityClasses - 1; cls >= 0; --cls) {
    unsigned& rr = tx_rr_[cls];
    for (unsigned k = 0; k < kNumTxQueues; ++k) {
      const unsigned q = (rr + k) % kNumTxQueues;
      const TxQueueState& t = txq_[q];
      if (t.enabled && !t.shutdown && t.priority_class == cls && !t.empty()) {
        rr = (q + 1) % kNumTxQueues;
        return static_cast<int>(q);
      }
    }
  }
  return -1;
}

sim::Co<void> Ctrl::tx_launch(unsigned q) {
  TxQueueState& t = txq_.at(q);
  if (!t.enabled || t.shutdown || t.empty()) {
    co_return;
  }
  const sim::Tick launch_start = now();
  const std::uint32_t slot = t.slot_addr(t.consumer);
  net::Packet pkt;
  pkt.src = node_;

  if (t.express) {
    co_await ibus_access(t.bank, kExpressSlotBytes);
    std::byte entry[kExpressSlotBytes];
    sram(t.bank).read(slot, entry);
    const auto vdest = static_cast<std::uint16_t>(entry[0]);
    const auto xe = co_await translate(t.and_mask, t.or_mask, vdest);
    if (!xe) {
      shutdown_tx_queue(q);
      co_return;
    }
    pkt.dest = xe->phys_node;
    pkt.dest_queue = xe->logical_queue;
    pkt.priority = xe->priority;
    pkt.payload.assign(entry, entry + kExpressSlotBytes);
  } else {
    co_await ibus_access(t.bank, kBasicHeaderBytes);
    std::byte hdr[kBasicHeaderBytes];
    sram(t.bank).read(slot, hdr);
    const MsgDescriptor d = MsgDescriptor::decode(hdr);
    if (d.length > kBasicMaxData ||
        d.length + kBasicHeaderBytes > t.slot_bytes) {
      shutdown_tx_queue(q);
      co_return;
    }
    if (d.length > 0) {
      co_await ibus_access(t.bank, d.length);
      pkt.payload.resize(d.length);
      sram(t.bank).read(slot + kBasicHeaderBytes, pkt.payload);
    }

    if (d.raw()) {
      if (!t.raw_allowed) {
        shutdown_tx_queue(q);
        co_return;
      }
      pkt.dest = d.vdest;
      pkt.dest_queue = static_cast<net::QueueId>(d.aux & 0xFFFF);
      pkt.priority = (d.flags & MsgDescriptor::kFlagHighPriority) != 0
                         ? net::kPriorityHigh
                         : net::kPriorityLow;
    } else {
      const auto xe = co_await translate(t.and_mask, t.or_mask, d.vdest);
      if (!xe) {
        shutdown_tx_queue(q);
        co_return;
      }
      pkt.dest = xe->phys_node;
      pkt.dest_queue = xe->logical_queue;
      pkt.priority = xe->priority;
    }

    if (d.tagon()) {
      const std::uint32_t tb = d.tagon_bytes();
      if (pkt.payload.size() + tb > net::kMaxPayloadBytes) {
        shutdown_tx_queue(q);
        co_return;
      }
      const SramBank tbank =
          (d.flags & MsgDescriptor::kFlagTagOnSSram) != 0 ? SramBank::kSSram
                                                          : t.bank;
      co_await ibus_access(tbank, tb);
      const std::size_t off = pkt.payload.size();
      pkt.payload.resize(off + tb);
      sram(tbank).read(d.aux,
                       std::span<std::byte>(pkt.payload).subspan(off, tb));
    }
  }

  if (pkt.dest >= network_->num_nodes()) {
    shutdown_tx_queue(q);
    co_return;
  }

  co_await inject(std::move(pkt));
  stats_.msgs_launched.inc();
  ++t.consumer;
  if (trace::Tracer* tr = kernel_.tracer()) {
    tr->span(trace_lane(txu_track_, "NIU.TxU", "niu"),
             "launch q" + std::to_string(q), launch_start, now());
  }
  trace_tx_depth(q);
  co_await write_shadow(tx_consumer_shadow(q), t.consumer);
  queue_space_.pulse();
}

sim::Co<void> Ctrl::inject(net::Packet pkt) {
  trace::Tracer* tr = kernel_.tracer();
  sim::Tick t0 = 0;
  std::uint64_t flow = 0;
  if (tr != nullptr) {
    // All NIU-originated packets funnel through here: assign the flow id
    // that links this send to its link/router/deliver hops downstream.
    // Namespaced by node (bit 62 keeps it disjoint from network-assigned
    // serials) so the id depends only on this node's own send order, never
    // on how sends from different nodes interleave.
    if (pkt.serial == 0) {
      pkt.serial = (std::uint64_t{1} << 62) |
                   (static_cast<std::uint64_t>(node_) << 40) | ++flow_seq_;
    }
    flow = pkt.serial;
    t0 = now();
  }
  const sim::NodeId dest = pkt.dest;
  co_await net_port_.acquire();
  co_await network_->inject(std::move(pkt));
  net_port_.release();
  if (tr != nullptr) {
    tr->span(trace_lane(inject_track_, "NIU.inject", "niu"),
             "inject>n" + std::to_string(dest), t0, now(), flow);
  }
}

// --- Receive path ----------------------------------------------------------------------

int Ctrl::rx_lookup(net::QueueId logical) const {
  for (unsigned i = 0; i < kNumRxQueues; ++i) {
    if (rxq_[i].enabled && rxq_[i].logical == logical) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

sim::Co<void> Ctrl::rx_enqueue(unsigned qidx, const RxDescriptor& desc,
                               std::span<const std::byte> data,
                               std::uint64_t flow) {
  RxQueueState& r = rxq_.at(qidx);
  assert(!r.full());
  const std::uint32_t slot = r.slot_addr(r.producer);
  if (r.express) {
    // Reformat the 8-byte express tx entry into the rx entry the aP reads:
    // [0]=valid, [1]=source node, [2]=extra byte, [4..7]=data word.
    std::byte entry[kExpressSlotBytes] = {};
    entry[0] = std::byte{1};
    entry[1] = static_cast<std::byte>(desc.src_node & 0xFF);
    entry[2] = data.size() > 1 ? data[1] : std::byte{0};
    for (std::size_t i = 4; i < 8 && i < data.size(); ++i) {
      entry[i] = data[i];
    }
    co_await ibus_access(r.bank, kExpressSlotBytes);
    sram(r.bank).write(slot, entry);
  } else {
    const auto len = static_cast<std::uint8_t>(
        std::min<std::size_t>(data.size(), r.slot_bytes - kBasicHeaderBytes));
    RxDescriptor d = desc;
    d.length = len;
    std::byte hdr[kBasicHeaderBytes];
    d.encode(hdr);
    co_await ibus_access(r.bank,
                         kBasicHeaderBytes + static_cast<std::uint32_t>(len));
    sram(r.bank).write(slot, hdr);
    if (len > 0) {
      sram(r.bank).write(slot + kBasicHeaderBytes, data.first(len));
    }
  }
  ++r.producer;
  if (kernel_.tracer() != nullptr && flow != 0) {
    rx_resident_[qidx].push_back(RxResident{flow, now()});
  }
  trace_rx_depth(qidx);
  co_await write_shadow(rx_producer_shadow(qidx), r.producer);
  if (r.interrupt_on_arrival) {
    raise_interrupt(kIntrRxArrival);
  }
  rx_arrival_.pulse();
}

sim::Co<bool> Ctrl::divert_to_miss() {
  RxQueueState& miss = rxq_[kMissRxQueue];
  if (!miss.enabled) {
    co_return false;
  }
  if (miss.full()) {
    if (miss.full_policy != RxFullPolicy::kHold) {
      co_return false;
    }
    const sim::Tick t0 = now();
    while (miss.full()) {
      co_await queue_space_;
    }
    stats_.rx_held_ps.inc(now() - t0);
  }
  co_return true;
}

sim::Co<void> Ctrl::rx_deliver(net::Packet pkt) {
  stats_.msgs_received.inc();
  const sim::Tick rx_start = now();
  const std::uint64_t flow = pkt.serial;
  trace::Tracer* tr = kernel_.tracer();
  const auto rx_span = [&](const char* what) {
    if (tr != nullptr) {
      tr->span(trace_lane(rxu_track_, "NIU.RxU", "niu"), what, rx_start,
               now(), flow);
    }
  };

  if (pkt.dest_queue == net::kRemoteCmdQueue) {
    try {
      post_remote_command(decode_remote(pkt.payload));
    } catch (const std::invalid_argument&) {
      // Malformed remote command: drop it, like hardware would, and count.
      stats_.rx_dropped.inc();
      if (tr != nullptr) {
        tr->instant(trace_lane(rxu_track_, "NIU.RxU", "niu"),
                    "malformed remote command", now(), flow);
      }
    }
    rx_span("rx cmd");
    co_return;
  }

  RxDescriptor desc;
  desc.src_node = static_cast<std::uint16_t>(pkt.src);
  desc.logical = pkt.dest_queue;

  int qi = rx_lookup(pkt.dest_queue);
  if (qi < 0) {
    // Rx-queue cache miss: divert to the miss/overflow queue for firmware.
    stats_.rx_misses.inc();
    raise_interrupt(kIntrRxMiss);
    const bool ok = co_await divert_to_miss();
    if (!ok) {
      stats_.rx_dropped.inc();
      rx_span("rx drop");
      co_return;
    }
    co_await rx_enqueue(kMissRxQueue, desc, pkt.payload, flow);
    rx_span("rx miss");
    co_return;
  }

  RxQueueState& r = rxq_[static_cast<unsigned>(qi)];
  if (r.full()) {
    switch (r.full_policy) {
      case RxFullPolicy::kDrop:
        stats_.rx_dropped.inc();
        rx_span("rx drop");
        co_return;
      case RxFullPolicy::kDivert: {
        stats_.rx_misses.inc();
        raise_interrupt(kIntrRxMiss);
        const bool ok = qi != static_cast<int>(kMissRxQueue) &&
                        co_await divert_to_miss();
        if (!ok) {
          stats_.rx_dropped.inc();
          rx_span("rx drop");
          co_return;
        }
        co_await rx_enqueue(kMissRxQueue, desc, pkt.payload, flow);
        rx_span("rx miss");
        co_return;
      }
      case RxFullPolicy::kHold: {
        // Stall the receive path until the aP frees a slot. This blocks the
        // RxU (and, through credits, the network) — the deadlock-prone
        // option the paper warns about.
        const sim::Tick t0 = now();
        while (r.full()) {
          co_await queue_space_;
        }
        stats_.rx_held_ps.inc(now() - t0);
        break;
      }
    }
  }
  stats_.rx_hits.inc();
  co_await rx_enqueue(static_cast<unsigned>(qi), desc, pkt.payload, flow);
  rx_span("rx");
}

sim::Co<void> Ctrl::notify_local(net::QueueId logical,
                                 std::span<const std::byte> data,
                                 std::uint16_t src_node) {
  assert(logical != net::kRemoteCmdQueue);
  net::Packet pkt;
  pkt.dest = node_;
  pkt.src = src_node;
  pkt.dest_queue = logical;
  pkt.payload.assign(data.begin(), data.end());
  co_await rx_deliver(std::move(pkt));
}

// --- Command machinery --------------------------------------------------------------------

void Ctrl::post_command(unsigned cmdq, Command cmd) {
  ++cmds_in_flight_;
  local_cmds_.at(cmdq)->push(std::move(cmd));
}

void Ctrl::post_remote_command(Command cmd) {
  ++cmds_in_flight_;
  remote_cmds_->push(std::move(cmd));
}

bool Ctrl::commands_idle() const {
  return cmds_in_flight_ == 0 && blocks_->outstanding() == 0;
}

namespace {
bool is_block_op(CmdOp op) {
  return op == CmdOp::kBlockRead || op == CmdOp::kBlockTx ||
         op == CmdOp::kBlockXfer || op == CmdOp::kBlockDiffTx;
}
}  // namespace

sim::Co<void> Ctrl::command_loop(sim::Channel<Command>& chan,
                                 sim::Counter& counter) {
  for (;;) {
    Command cmd = co_await chan.pop();
    co_await sim::delay(kernel_, mem::kBusClock.to_ticks(kCmdDispatchCycles));
    if (cmd.fence) {
      while (blocks_->outstanding() != 0) {
        co_await blocks_->drained();
      }
    }
    counter.inc();
    if (is_block_op(cmd.op)) {
      // Block operations run on the engines and complete out of order with
      // respect to this queue (paper section 4).
      blocks_->begin_op();
      sim::spawn(run_block_command(std::move(cmd)));
    } else {
      const sim::Tick exec_start = now();
      const CmdOp op = cmd.op;
      co_await execute(cmd);
      co_await finish_command(cmd);
      if (trace::Tracer* tr = kernel_.tracer()) {
        tr->span(trace_lane(cmd_track_, "NIU.CTRL", "niu"), cmd_name(op),
                 exec_start, now());
      }
    }
    --cmds_in_flight_;
    cmd_progress_.pulse();
    if (commands_idle()) {
      cmds_drained_.pulse();
    }
  }
}

sim::Co<void> Ctrl::run_block_command(Command cmd) {
  const sim::Tick block_start = now();
  const CmdOp op = cmd.op;
  switch (cmd.op) {
    case CmdOp::kBlockRead:
      stats_.block_reads.inc();
      co_await blocks_->block_read(cmd);
      break;
    case CmdOp::kBlockTx:
      stats_.block_txs.inc();
      co_await blocks_->block_tx(cmd);
      break;
    case CmdOp::kBlockXfer:
      stats_.block_xfers.inc();
      co_await blocks_->block_xfer(cmd);
      break;
    case CmdOp::kBlockDiffTx:
      stats_.block_txs.inc();
      co_await blocks_->block_diff_tx(cmd);
      break;
    default:
      assert(false);
  }
  co_await finish_command(cmd);
  if (trace::Tracer* tr = kernel_.tracer()) {
    tr->span(trace_lane(cmd_track_, "NIU.CTRL", "niu"), cmd_name(op),
             block_start, now());
  }
  blocks_->end_op();
  cmd_progress_.pulse();
  if (commands_idle()) {
    cmds_drained_.pulse();
  }
}

sim::Co<void> Ctrl::finish_command(const Command& cmd) {
  if (cmd.notify_queue == kNoNotify) {
    co_return;
  }
  std::byte payload[8] = {};
  std::memcpy(payload, &cmd.notify_tag, sizeof(cmd.notify_tag));
  co_await notify_local(cmd.notify_queue, payload,
                        static_cast<std::uint16_t>(node_));
  raise_interrupt(kIntrCmdComplete);
}

sim::Co<void> Ctrl::exec_immediate(Command cmd) {
  stats_.cmds_immediate.inc();
  if (is_block_op(cmd.op)) {
    blocks_->begin_op();
    co_await run_block_command(std::move(cmd));
    co_return;
  }
  co_await execute(cmd);
  co_await finish_command(cmd);
}

sim::Co<void> Ctrl::execute(Command cmd) {
  switch (cmd.op) {
    case CmdOp::kWriteSram: {
      co_await ibus_access(cmd.bank,
                           static_cast<std::uint32_t>(cmd.data.size()));
      sram(cmd.bank).write(cmd.sram_offset, cmd.data);
      break;
    }
    case CmdOp::kWriteApDram: {
      co_await ap_port_->master_write(cmd.addr, cmd.data);
      if (cmd.set_cls && cls_.covers(cmd.addr)) {
        co_await cls_.write_state_range(
            cmd.addr, static_cast<mem::Addr>(cmd.data.size()), cmd.cls_bits);
        ap_port_->cls_updated(cmd.addr,
                              static_cast<std::uint32_t>(cmd.data.size()));
      }
      if (cmd.chunk_notify) {
        std::byte note[12];
        const std::uint64_t a = cmd.addr;
        const auto l = static_cast<std::uint32_t>(cmd.data.size());
        std::memcpy(note, &a, 8);
        std::memcpy(note + 8, &l, 4);
        co_await notify_local(kChunkArrivalQueue, note, cmd.src_node);
      }
      break;
    }
    case CmdOp::kReadApDram: {
      std::vector<std::byte> buf(cmd.len);
      co_await ap_port_->master_read(cmd.addr, buf);
      co_await ibus_access(cmd.bank, cmd.len);
      sram(cmd.bank).write(cmd.sram_offset, buf);
      break;
    }
    case CmdOp::kSendMessage: {
      net::Packet pkt;
      pkt.src = node_;
      if (cmd.translate) {
        const auto xe = co_await translate(0xFFFF, 0, cmd.vdest);
        if (!xe) {
          if (trace::Tracer* tr = kernel_.tracer()) {
            tr->instant(trace_lane(cmd_track_, "NIU.CTRL", "niu"),
                        "send: no translation for vdest " +
                            std::to_string(cmd.vdest),
                        now());
          }
          break;
        }
        pkt.dest = xe->phys_node;
        pkt.dest_queue = xe->logical_queue;
        pkt.priority = xe->priority;
      } else {
        pkt.dest = cmd.dest_node;
        pkt.dest_queue = cmd.queue;
        pkt.priority = cmd.priority;
      }
      pkt.payload = cmd.data;
      if (cmd.attach_len > 0) {
        co_await ibus_access(cmd.bank, cmd.attach_len);
        const std::size_t off = pkt.payload.size();
        pkt.payload.resize(off + cmd.attach_len);
        sram(cmd.bank).read(cmd.sram_offset,
                            std::span<std::byte>(pkt.payload)
                                .subspan(off, cmd.attach_len));
      }
      if (pkt.payload.size() > net::kMaxPayloadBytes) {
        throw std::invalid_argument(name() + ": kSendMessage too large");
      }
      co_await inject(std::move(pkt));
      stats_.msgs_launched.inc();
      break;
    }
    case CmdOp::kWriteClsState: {
      co_await cls_.write_state_range(cmd.addr, cmd.len, cmd.cls_bits);
      ap_port_->cls_updated(cmd.addr, cmd.len);
      break;
    }
    case CmdOp::kBusKill: {
      co_await ap_port_->master_kill(cmd.addr);
      break;
    }
    case CmdOp::kBusFlush: {
      co_await ap_port_->master_flush(cmd.addr);
      break;
    }
    case CmdOp::kSupplyLoad: {
      ap_port_->supply_load(cmd.tag, cmd.data);
      break;
    }
    case CmdOp::kCopySram: {
      std::vector<std::byte> buf(cmd.len);
      co_await ibus_access(cmd.bank, cmd.len);
      sram(cmd.bank).read(cmd.sram_offset, buf);
      co_await ibus_access(cmd.bank2, cmd.len);
      sram(cmd.bank2).write(cmd.sram_offset2, buf);
      break;
    }
    case CmdOp::kNotifyLocal: {
      co_await notify_local(cmd.queue, cmd.data, cmd.src_node);
      break;
    }
    case CmdOp::kWriteReg: {
      write_reg(static_cast<SysReg>(cmd.reg), cmd.value);
      break;
    }
    case CmdOp::kBlockRead:
    case CmdOp::kBlockTx:
    case CmdOp::kBlockXfer:
    case CmdOp::kBlockDiffTx:
      assert(false && "block ops are dispatched by the command loop");
      break;
  }
}

// --- Registers and interrupts ------------------------------------------------------------

std::uint64_t Ctrl::read_reg(SysReg r) const {
  switch (r) {
    case SysReg::kTxPriority: {
      std::uint64_t v = 0;
      for (unsigned q = 0; q < kNumTxQueues; ++q) {
        v |= static_cast<std::uint64_t>(txq_[q].priority_class & 0x3)
             << (2 * q);
      }
      return v;
    }
    case SysReg::kInterruptStatus:
      return intr_status_;
    case SysReg::kInterruptEnable:
      return intr_enable_;
    case SysReg::kTranslationBase:
      return xlat_base_;
    case SysReg::kTranslationSize:
      return xlat_entries_;
    case SysReg::kShutdownStatus: {
      std::uint64_t v = 0;
      for (unsigned q = 0; q < kNumTxQueues; ++q) {
        if (txq_[q].shutdown) {
          v |= std::uint64_t{1} << q;
        }
      }
      return v;
    }
    case SysReg::kNodeId:
      return node_;
    case SysReg::kCount:
      break;
  }
  return 0;
}

void Ctrl::write_reg(SysReg r, std::uint64_t v) {
  switch (r) {
    case SysReg::kTxPriority:
      for (unsigned q = 0; q < kNumTxQueues; ++q) {
        txq_[q].priority_class =
            static_cast<std::uint8_t>((v >> (2 * q)) & 0x3);
      }
      tx_work_.pulse();  // re-arbitrate under the new priorities
      break;
    case SysReg::kInterruptStatus:
      clear_interrupts(v);
      break;
    case SysReg::kInterruptEnable:
      intr_enable_ = v;
      break;
    case SysReg::kTranslationBase:
      xlat_base_ = static_cast<std::uint32_t>(v);
      break;
    case SysReg::kTranslationSize:
      xlat_entries_ = static_cast<std::uint32_t>(v);
      break;
    case SysReg::kShutdownStatus:
      // Writing a bit re-enables the corresponding shut-down queue.
      for (unsigned q = 0; q < kNumTxQueues; ++q) {
        if ((v & (std::uint64_t{1} << q)) != 0) {
          txq_[q].shutdown = false;
        }
      }
      tx_work_.pulse();
      break;
    case SysReg::kNodeId:
    case SysReg::kCount:
      break;
  }
}

void Ctrl::raise_interrupt(std::uint64_t cause) {
  intr_status_ |= cause;
  if ((cause & intr_enable_) != 0) {
    sp_intr_.pulse();
  }
}

void Ctrl::clear_interrupts(std::uint64_t mask) { intr_status_ &= ~mask; }

void Ctrl::ckpt_save(ckpt::Writer& w) const {
  for (const TxQueueState& q : txq_) {
    w.b(q.enabled);
    w.b(q.shutdown);
    w.b(q.express);
    w.b(q.raw_allowed);
    w.b(q.translate);
    w.u8(static_cast<std::uint8_t>(q.bank));
    w.u32(q.base);
    w.u16(q.slots);
    w.u16(q.slot_bytes);
    w.u16(q.producer);
    w.u16(q.consumer);
    w.u16(q.and_mask);
    w.u16(q.or_mask);
    w.u8(q.priority_class);
  }
  for (const RxQueueState& q : rxq_) {
    w.b(q.enabled);
    w.b(q.express);
    w.b(q.interrupt_on_arrival);
    w.u8(static_cast<std::uint8_t>(q.bank));
    w.u32(q.base);
    w.u16(q.slots);
    w.u16(q.slot_bytes);
    w.u16(q.producer);
    w.u16(q.consumer);
    w.u8(static_cast<std::uint8_t>(q.full_policy));
    w.u16(q.logical);
  }
  for (const unsigned rr : tx_rr_) {
    w.u32(rr);
  }
  w.u64(flow_seq_);
  w.u32(cmds_in_flight_);
  w.u64(intr_status_);
  ckpt::save(w, stats_.msgs_launched);
  ckpt::save(w, stats_.msgs_received);
  ckpt::save(w, stats_.express_pushed);
  ckpt::save(w, stats_.express_popped);
  ckpt::save(w, stats_.rx_hits);
  ckpt::save(w, stats_.rx_misses);
  ckpt::save(w, stats_.rx_dropped);
  ckpt::save(w, stats_.rx_held_ps);
  ckpt::save(w, stats_.cmds_local);
  ckpt::save(w, stats_.cmds_remote);
  ckpt::save(w, stats_.cmds_immediate);
  ckpt::save(w, stats_.protection_violations);
  ckpt::save(w, stats_.xlat_lookups);
  ckpt::save(w, stats_.block_reads);
  ckpt::save(w, stats_.block_txs);
  ckpt::save(w, stats_.block_xfers);
  ckpt::save(w, stats_.ibus_busy);
}

}  // namespace sv::niu
