#include "msg/endpoint.hpp"

#include <cstring>
#include <stdexcept>

namespace sv::msg {

namespace {

using niu::kAsramWindowOffset;
using niu::kExpressRxWindowOffset;
using niu::kExpressTxWindowOffset;
using niu::kNiuBase;
using niu::kPtrWindowOffset;

mem::Addr asram_addr(std::uint32_t offset) {
  return kNiuBase + kAsramWindowOffset + offset;
}

}  // namespace

Endpoint::Endpoint(cpu::Processor& ap, Config config)
    : ap_(ap),
      config_(config),
      tx_(ap.kernel()),
      extx_(ap.kernel()),
      raw_(ap.kernel()),
      rx_gate_(ap.kernel(), 1) {}

sim::Co<void> Endpoint::wait_space(TxCursor& c, const QueueConfig& q) {
  while (static_cast<std::uint16_t>(c.producer - c.consumer_seen) >=
         q.slots) {
    c.consumer_seen = static_cast<std::uint16_t>(
        co_await ap_.load_scalar<std::uint32_t>(
            asram_addr(niu::tx_consumer_shadow(q.hwq)), /*cached=*/false));
  }
}

sim::Co<void> Endpoint::launch(TxCursor& c, const QueueConfig& q,
                               niu::MsgDescriptor d,
                               std::span<const std::byte> data) {
  co_await c.gate.acquire();
  co_await wait_space(c, q);

  const std::uint32_t slot =
      q.base + static_cast<std::uint32_t>(c.producer % q.slots) * q.slot_bytes;
  d.length = static_cast<std::uint8_t>(data.size());
  std::byte hdr[niu::kBasicHeaderBytes];
  d.encode(hdr);

  // Compose through the cache, then flush so the SRAM holds the message.
  co_await ap_.store(asram_addr(slot), hdr);
  if (!data.empty()) {
    co_await ap_.store(asram_addr(slot + niu::kBasicHeaderBytes), data);
  }
  co_await ap_.flush_range(asram_addr(slot),
                           niu::kBasicHeaderBytes + data.size());

  // Launch: a single uncached store to the pointer window.
  ++c.producer;
  co_await ap_.store_scalar<std::uint32_t>(
      kNiuBase + kPtrWindowOffset +
          niu::ptr_window_addr(niu::PtrKind::kTxProducer, q.hwq),
      c.producer, /*cached=*/false);
  c.gate.release();
}

sim::Co<void> Endpoint::send(std::uint16_t vdest,
                             std::span<const std::byte> data) {
  if (data.size() > niu::kBasicMaxData) {
    throw std::invalid_argument("Endpoint::send: message too large");
  }
  niu::MsgDescriptor d;
  d.vdest = vdest;
  co_await launch(tx_, config_.tx, d, data);
}

sim::Co<void> Endpoint::send_tagon(std::uint16_t vdest,
                                   std::span<const std::byte> data,
                                   std::uint32_t sram_offset, bool large) {
  const std::uint32_t tagon_bytes =
      large ? niu::kTagOnLargeBytes : niu::kTagOnSmallBytes;
  if (data.size() + tagon_bytes > net::kMaxPayloadBytes) {
    throw std::invalid_argument("Endpoint::send_tagon: payload too large");
  }
  niu::MsgDescriptor d;
  d.vdest = vdest;
  d.flags = niu::MsgDescriptor::kFlagTagOn |
            (large ? niu::MsgDescriptor::kFlagTagOnLarge : 0);
  d.aux = sram_offset;
  co_await launch(tx_, config_.tx, d, data);
}

sim::Co<void> Endpoint::send_raw(sim::NodeId dest, net::QueueId queue,
                                 std::span<const std::byte> data,
                                 bool high_priority) {
  if (config_.raw_tx.slots == 0) {
    throw std::logic_error("Endpoint::send_raw: no raw queue configured");
  }
  if (data.size() > niu::kBasicMaxData) {
    throw std::invalid_argument("Endpoint::send_raw: message too large");
  }
  niu::MsgDescriptor d;
  d.vdest = static_cast<std::uint16_t>(dest);
  d.flags = niu::MsgDescriptor::kFlagRaw |
            (high_priority ? niu::MsgDescriptor::kFlagHighPriority : 0);
  d.aux = queue;
  co_await launch(raw_, config_.raw_tx, d, data);
}

sim::Co<void> Endpoint::stage(std::uint32_t sram_offset,
                              std::span<const std::byte> data) {
  co_await ap_.store(asram_addr(sram_offset), data);
  co_await ap_.flush_range(asram_addr(sram_offset), data.size());
}

sim::Co<std::optional<Message>> Endpoint::try_recv() {
  const auto& q = config_.rx;
  co_await rx_gate_.acquire();
  if (rx_consumer_ == rx_producer_seen_) {
    rx_producer_seen_ = static_cast<std::uint16_t>(
        co_await ap_.load_scalar<std::uint32_t>(
            asram_addr(niu::rx_producer_shadow(q.hwq)), /*cached=*/false));
    if (rx_consumer_ == rx_producer_seen_) {
      rx_gate_.release();
      co_return std::nullopt;
    }
  }

  const std::uint32_t slot =
      q.base + static_cast<std::uint32_t>(rx_consumer_ % q.slots) *
                   q.slot_bytes;
  // The slot was last read a full queue-wrap ago: discard stale cache lines
  // before reading the fresh message.
  const mem::Addr first = mem::line_base(asram_addr(slot));
  const mem::Addr last =
      mem::line_base(asram_addr(slot) + q.slot_bytes - 1);
  for (mem::Addr a = first; a <= last; a += mem::kLineBytes) {
    co_await ap_.invalidate_line(a);
  }

  std::byte hdr[niu::kBasicHeaderBytes];
  co_await ap_.load(asram_addr(slot), hdr);
  const auto desc = niu::RxDescriptor::decode(hdr);

  Message msg;
  msg.src_node = desc.src_node;
  msg.logical = desc.logical;
  msg.data.resize(desc.length);
  if (desc.length > 0) {
    co_await ap_.load(asram_addr(slot + niu::kBasicHeaderBytes), msg.data);
  }

  ++rx_consumer_;
  co_await ap_.store_scalar<std::uint32_t>(
      kNiuBase + kPtrWindowOffset +
          niu::ptr_window_addr(niu::PtrKind::kRxConsumer, q.hwq),
      rx_consumer_, /*cached=*/false);
  rx_gate_.release();
  co_return msg;
}

sim::Co<Message> Endpoint::recv() {
  for (;;) {
    auto msg = co_await try_recv();
    if (msg.has_value()) {
      co_return std::move(*msg);
    }
  }
}

sim::Co<Message> Endpoint::recv_interrupt(sim::Cycles isr_cycles) {
  if (config_.arrival == nullptr) {
    throw std::logic_error(
        "Endpoint::recv_interrupt: no arrival interrupt wired");
  }
  for (;;) {
    auto msg = co_await try_recv();
    if (msg.has_value()) {
      co_return std::move(*msg);
    }
    // Sleep until the NIU signals an arrival, then pay interrupt cost.
    co_await *config_.arrival;
    co_await ap_.work(isr_cycles);
  }
}

sim::Co<void> Endpoint::send_express(std::uint8_t vdest, std::uint8_t extra,
                                     std::uint32_t word) {
  const auto& q = config_.express_tx;
  co_await extx_.gate.acquire();
  co_await wait_space(extx_, q);
  ++extx_.producer;
  co_await ap_.store_scalar<std::uint32_t>(
      kNiuBase + kExpressTxWindowOffset +
          niu::express_tx_addr(q.hwq, vdest, extra),
      word, /*cached=*/false);
  extx_.gate.release();
}

sim::Co<std::optional<ExpressMessage>> Endpoint::try_recv_express() {
  const auto& q = config_.express_rx;
  const auto entry = co_await ap_.load_scalar<std::uint64_t>(
      kNiuBase + kExpressRxWindowOffset + q.hwq * niu::kExpressRxStride,
      /*cached=*/false);
  if (entry == ~std::uint64_t{0}) {
    co_return std::nullopt;
  }
  std::byte bytes[8];
  std::memcpy(bytes, &entry, 8);
  ExpressMessage msg;
  msg.src_node = static_cast<std::uint8_t>(bytes[1]);
  msg.extra = static_cast<std::uint8_t>(bytes[2]);
  std::memcpy(&msg.word, bytes + 4, 4);
  co_return msg;
}

sim::Co<ExpressMessage> Endpoint::recv_express() {
  for (;;) {
    auto msg = co_await try_recv_express();
    if (msg.has_value()) {
      co_return *msg;
    }
  }
}

}  // namespace sv::msg
