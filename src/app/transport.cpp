#include "app/transport.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "ckpt/io.hpp"
#include "sim/crc32.hpp"

namespace sv::app {

namespace {

template <typename T>
void put(std::byte* out, std::size_t off, T v) {
  std::memcpy(out + off, &v, sizeof(T));
}

template <typename T>
T get(const std::byte* in, std::size_t off) {
  T v;
  std::memcpy(&v, in + off, sizeof(T));
  return v;
}

}  // namespace

void WireHeader::encode(std::byte* out) const {
  put(out, 0, src_rank);
  put(out, 2, dst_rank);
  put(out, 4, tag);
  put(out, 8, msg_seq);
  put(out, 10, frag);
  put(out, 12, nfrags);
  put(out, 14, len);
}

WireHeader WireHeader::decode(std::span<const std::byte> in) {
  if (in.size() < kBytes) {
    throw std::runtime_error("app::WireHeader: short frame");
  }
  WireHeader h;
  h.src_rank = get<std::uint16_t>(in.data(), 0);
  h.dst_rank = get<std::uint16_t>(in.data(), 2);
  h.tag = get<std::uint32_t>(in.data(), 4);
  h.msg_seq = get<std::uint16_t>(in.data(), 8);
  h.frag = get<std::uint16_t>(in.data(), 10);
  h.nfrags = get<std::uint16_t>(in.data(), 12);
  h.len = get<std::uint16_t>(in.data(), 14);
  return h;
}

// ---------------------------------------------------------------------------
// Transport base: fragmentation, reassembly, mailbox.
// ---------------------------------------------------------------------------

Transport::Transport(sys::Node& node, sim::Kernel& kernel,
                     std::size_t nranks)
    : node_(node),
      kernel_(kernel),
      nranks_(nranks),
      delivered_(kernel),
      mbox_(nranks),
      next_seq_(nranks * nranks, 0) {}

sim::Co<void> Transport::send(std::uint16_t src_rank, std::uint16_t dst_rank,
                              std::uint32_t tag,
                              std::span<const std::byte> data, bool local) {
  stats_.msgs_sent.inc();
  stats_.bytes_sent.inc(data.size());

  if (local) {
    // Same-node destination: no mechanism hop, straight into the mailbox.
    stats_.local_delivered.inc();
    deliver(src_rank, dst_rank, tag,
            std::vector<std::byte>(data.begin(), data.end()));
    co_return;
  }

  const std::size_t cap = frame_payload();
  const auto nfrags = static_cast<std::uint16_t>(
      data.empty() ? 1 : (data.size() + cap - 1) / cap);
  const std::uint16_t seq = next_seq_[src_rank * nranks_ + dst_rank]++;
  const auto dst_node =
      static_cast<sim::NodeId>(dst_rank % node_.num_nodes());

  std::vector<std::byte> frame;
  for (std::uint16_t f = 0; f < nfrags; ++f) {
    const std::size_t off = static_cast<std::size_t>(f) * cap;
    const std::size_t len = std::min(cap, data.size() - off);
    WireHeader h;
    h.src_rank = src_rank;
    h.dst_rank = dst_rank;
    h.tag = tag;
    h.msg_seq = seq;
    h.frag = f;
    h.nfrags = nfrags;
    h.len = static_cast<std::uint16_t>(len);
    frame.resize(WireHeader::kBytes + len);
    h.encode(frame.data());
    if (len > 0) {
      std::memcpy(frame.data() + WireHeader::kBytes, data.data() + off, len);
    }
    stats_.frames_sent.inc();
    co_await send_frame(dst_node, frame);
  }
}

sim::Co<Inbound> Transport::recv(std::uint16_t dst_rank,
                                 std::uint16_t src_filter,
                                 std::uint32_t tag_filter) {
  auto& q = mbox_.at(dst_rank);
  for (;;) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if ((src_filter == kAnyRank || it->src_rank == src_filter) &&
          (tag_filter == kAnyTag || it->tag == tag_filter)) {
        Inbound m = std::move(*it);
        q.erase(it);
        co_return m;
      }
    }
    co_await delivered_;
  }
}

void Transport::deliver(std::uint16_t src_rank, std::uint16_t dst_rank,
                        std::uint32_t tag, std::vector<std::byte> data) {
  stats_.msgs_delivered.inc();
  mbox_.at(dst_rank).push_back(Inbound{src_rank, tag, std::move(data)});
  delivered_.pulse();
}

void Transport::deliver_frame(std::span<const std::byte> frame) {
  const WireHeader h = WireHeader::decode(frame);
  if (frame.size() < WireHeader::kBytes + h.len) {
    throw std::runtime_error("app::Transport: truncated frame");
  }
  auto payload = frame.subspan(WireHeader::kBytes, h.len);

  if (h.nfrags == 1) {
    deliver(h.src_rank, h.dst_rank, h.tag,
            std::vector<std::byte>(payload.begin(), payload.end()));
    return;
  }

  // Reassembly keyed by (src, dst, seq): fragments of messages interleaved
  // by concurrent nonblocking sends sort themselves out.
  const std::uint64_t key = (static_cast<std::uint64_t>(h.src_rank) << 32) |
                            (static_cast<std::uint64_t>(h.dst_rank) << 16) |
                            h.msg_seq;
  Assembly& a = assembling_[key];
  if (a.parts.empty()) {
    a.tag = h.tag;
    a.parts.resize(h.nfrags);
  }
  a.parts.at(h.frag).assign(payload.begin(), payload.end());
  if (++a.got < h.nfrags) {
    return;
  }

  std::size_t total = 0;
  for (const auto& p : a.parts) {
    total += p.size();
  }
  std::vector<std::byte> data;
  data.reserve(total);
  for (const auto& p : a.parts) {
    data.insert(data.end(), p.begin(), p.end());
  }
  const std::uint32_t tag = a.tag;
  assembling_.erase(key);
  deliver(h.src_rank, h.dst_rank, tag, std::move(data));
}

// ---------------------------------------------------------------------------
// MsgTransport.
// ---------------------------------------------------------------------------

MsgTransport::MsgTransport(sys::Node& node, sim::Kernel& kernel,
                           msg::AddressMap map, std::size_t nranks)
    : Transport(node, kernel, nranks),
      ep_(node.ap(), node.endpoint_config()),
      map_(map) {}

void MsgTransport::start() { node_.ap().run(rx_loop()); }

sim::Co<void> MsgTransport::send_frame(sim::NodeId dst_node,
                                       std::span<const std::byte> frame) {
  co_await ep_.send(map_.user0(dst_node), frame);
}

sim::Co<void> MsgTransport::rx_loop() {
  for (;;) {
    msg::Message m = co_await ep_.recv();
    deliver_frame(m.data);
  }
}

// ---------------------------------------------------------------------------
// ReliableTransport.
// ---------------------------------------------------------------------------

ReliableTransport::ReliableTransport(sys::Node& node, sim::Kernel& kernel,
                                     msg::AddressMap map, std::size_t nranks,
                                     msg::ReliableChannel::Params params)
    : Transport(node, kernel, nranks),
      ep_(node.ap(), node.endpoint_config()),
      chan_(ep_, map, node.id(), params) {}

void ReliableTransport::start() {
  chan_.start();
  const auto nnodes = static_cast<sim::NodeId>(node_.num_nodes());
  for (sim::NodeId peer = 0; peer < nnodes; ++peer) {
    if (peer != node_.id()) {
      node_.ap().run(rx_loop(peer));
    }
  }
}

sim::Co<void> ReliableTransport::send_frame(sim::NodeId dst_node,
                                            std::span<const std::byte> frame) {
  co_await chan_.send(dst_node, frame);
}

sim::Co<void> ReliableTransport::rx_loop(sim::NodeId peer) {
  for (;;) {
    std::vector<std::byte> frame = co_await chan_.recv(peer);
    deliver_frame(frame);
  }
}

// ---------------------------------------------------------------------------
// ShmTransport.
// ---------------------------------------------------------------------------

ShmTransport::ShmTransport(sys::Node& node, sim::Kernel& kernel,
                           std::size_t nranks, std::size_t nnodes,
                           Region region)
    : Transport(node, kernel, nranks),
      region_(region),
      nnodes_(nnodes),
      base_(region == Region::kNuma ? niu::kNumaBase : niu::kScomaBase),
      cached_(region == Region::kScoma) {
  if (!cached_) {
    // Uncached stores are posted: the aP fires them and moves on, and a
    // burst can overflow the home's 64-slot firmware request queue, whose
    // overflow path *discards* (divert to an unregistered miss queue).
    // Bound the posted stores each sender may have un-drained at any
    // home so that all peers together can never fill the queue, leaving
    // headroom for concurrent (synchronous, self-limiting) loads.
    const std::size_t peers = nnodes_ > 1 ? nnodes_ - 1 : 1;
    store_window_ = static_cast<std::uint32_t>(std::max<std::size_t>(
        1, (sys::Node::kFwSlots - 8) / peers - 1));
  }
  for (std::size_t n = 0; n < nnodes_; ++n) {
    tx_.emplace_back(TxRing{sim::Semaphore(kernel, 1)});
    rx_.emplace_back(RxRing{});
  }
}

mem::Addr ShmTransport::page_addr(sim::NodeId src, sim::NodeId dst) const {
  return base_ + static_cast<mem::Addr>((16 + src) * nnodes_ + dst) *
                     kPageBytes;
}

sim::Co<std::uint32_t> ShmTransport::load_u32(mem::Addr a) {
  co_return co_await node_.ap().load_scalar<std::uint32_t>(a, cached_);
}

sim::Co<void> ShmTransport::store_u32(mem::Addr a, std::uint32_t v) {
  co_await node_.ap().store_scalar<std::uint32_t>(a, v, cached_);
}

void ShmTransport::start() { node_.ap().run(rx_sweep()); }

sim::Co<void> ShmTransport::reserve_stores(TxRing& tx, mem::Addr page,
                                           std::uint32_t ops) {
  if (store_window_ == 0) {  // cached ring: stores block in the protocol
    co_return;
  }
  if (tx.unflushed + ops > store_window_) {
    tx.consumed_seen = co_await load_u32(page);
    tx.unflushed = 0;
  }
}

sim::Co<void> ShmTransport::send_frame(sim::NodeId dst_node,
                                       std::span<const std::byte> frame) {
  TxRing& tx = tx_.at(dst_node);
  co_await tx.gate.acquire();
  const mem::Addr page = page_addr(node_.id(), dst_node);

  // Wait for a free slot: the consumer cursor lives in the receiver-homed
  // page, so this poll is the sender's (remote) cost, paid only under
  // backpressure.
  while (tx.next_seq - tx.consumed_seen > kSlots) {
    tx.consumed_seen = co_await load_u32(page);
    tx.unflushed = 0;  // a completed read drains all earlier posted stores
    if (tx.next_seq - tx.consumed_seen > kSlots) {
      co_await sim::delay(kernel_, kPollInterval);
    }
  }

  const mem::Addr slot =
      page + kSlotBytes + ((tx.next_seq - 1) % kSlots) * kSlotBytes;
  // Payload and length first, the slot's seq word last: stores from one
  // sender reach the home in order, so a seq match guarantees the frame
  // bytes are already there.
  co_await reserve_stores(tx, page, 1);
  co_await store_u32(slot + 4, static_cast<std::uint32_t>(frame.size()));
  ++tx.unflushed;
  std::size_t off = 0;
  while (off < frame.size()) {
    std::size_t chunk = frame.size() - off;
    if (store_window_ != 0) {
      co_await reserve_stores(tx, page, 1);
      chunk = std::min<std::size_t>(
          chunk, std::size_t{store_window_ - tx.unflushed} * 8);
      chunk = std::max<std::size_t>(chunk, 1);
    }
    const auto part = frame.subspan(off, chunk);
    if (cached_) {
      co_await node_.ap().store(slot + kSlotDataOff + off, part);
    } else {
      co_await node_.ap().store_uncached(slot + kSlotDataOff + off, part);
    }
    tx.unflushed += static_cast<std::uint32_t>((chunk + 7) / 8);
    off += chunk;
  }
  co_await reserve_stores(tx, page, 1);
  co_await store_u32(slot, tx.next_seq);
  ++tx.unflushed;
  ++tx.next_seq;
  tx.gate.release();
}

sim::Co<void> ShmTransport::rx_sweep() {
  const auto self = node_.id();
  std::vector<std::byte> frame;
  for (;;) {
    bool any = false;
    for (sim::NodeId src = 0; src < static_cast<sim::NodeId>(nnodes_);
         ++src) {
      if (src == self) {
        continue;
      }
      RxRing& rx = rx_.at(src);
      const mem::Addr page = page_addr(src, self);
      for (;;) {
        const mem::Addr slot =
            page + kSlotBytes + ((rx.expected - 1) % kSlots) * kSlotBytes;
        const std::uint32_t seq = co_await load_u32(slot);
        if (seq != rx.expected) {
          break;
        }
        const std::uint32_t len = co_await load_u32(slot + 4);
        if (len > kSlotBytes - kSlotDataOff) {
          throw std::runtime_error("app::ShmTransport: bad slot length");
        }
        frame.resize(len);
        if (cached_) {
          co_await node_.ap().load(slot + kSlotDataOff, frame);
        } else {
          co_await node_.ap().load_uncached(slot + kSlotDataOff, frame);
        }
        deliver_frame(frame);
        // Publish the new consumer cursor (a local store: the page is
        // homed here) so the sender can reuse the slot.
        co_await store_u32(page, rx.expected);
        ++rx.expected;
        any = true;
      }
    }
    if (!any) {
      co_await sim::delay(kernel_, kPollInterval);
    }
  }
}

void Transport::ckpt_save(ckpt::Writer& w) const {
  w.u64(stats_.msgs_sent.value());
  w.u64(stats_.frames_sent.value());
  w.u64(stats_.bytes_sent.value());
  w.u64(stats_.msgs_delivered.value());
  w.u64(stats_.local_delivered.value());
  for (const std::uint16_t seq : next_seq_) {
    w.u16(seq);
  }
  // Mailbox: per-rank depth plus a digest over (src, tag, payload).
  for (const auto& q : mbox_) {
    w.u64(q.size());
    std::uint32_t crc = 0;
    for (const Inbound& m : q) {
      crc = sim::crc32(std::as_bytes(std::span(&m.src_rank, 1)), crc);
      crc = sim::crc32(std::as_bytes(std::span(&m.tag, 1)), crc);
      crc = sim::crc32(m.data, crc);
    }
    w.u32(crc);
  }
  // Reassembly buffers, in (src, dst, seq) key order (std::map).
  w.u64(assembling_.size());
  std::uint32_t crc = 0;
  for (const auto& [key, asm_] : assembling_) {
    crc = sim::crc32(std::as_bytes(std::span(&key, 1)), crc);
    crc = sim::crc32(std::as_bytes(std::span(&asm_.tag, 1)), crc);
    crc = sim::crc32(std::as_bytes(std::span(&asm_.got, 1)), crc);
    for (const auto& part : asm_.parts) {
      crc = sim::crc32(part, crc);
    }
  }
  w.u32(crc);
}

void ReliableTransport::ckpt_save(ckpt::Writer& w) const {
  Transport::ckpt_save(w);
  chan_.ckpt_save(w);
}

void ShmTransport::ckpt_save(ckpt::Writer& w) const {
  Transport::ckpt_save(w);
  for (const TxRing& tx : tx_) {
    w.u32(tx.next_seq);
    w.u32(tx.consumed_seen);
    w.u32(tx.unflushed);
  }
  for (const RxRing& rx : rx_) {
    w.u32(rx.expected);
  }
}

}  // namespace sv::app
