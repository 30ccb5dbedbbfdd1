#include "msg/reliable.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "ckpt/stats_io.hpp"
#include "sim/crc32.hpp"

namespace sv::msg {

namespace {

constexpr std::uint8_t kVersion = 0x5A;

// 16-byte wire header; CRC covers the whole frame with the crc field
// zeroed, so a single bit flip anywhere (header or payload) is caught.
struct Wire {
  std::uint8_t kind = 0;
  std::uint8_t version = kVersion;
  std::uint16_t reserved = 0;
  std::uint32_t crc = 0;
  std::uint64_t seq = 0;
};
static_assert(sizeof(Wire) == ReliableChannel::kHeaderBytes);

std::uint32_t frame_crc(std::span<const std::byte> frame) {
  // CRC with the 4-byte crc field (offset 4) treated as zero.
  const std::byte zeros[4] = {};
  std::uint32_t c = sim::crc32(frame.subspan(0, 4));
  c = sim::crc32(zeros, c);
  c = sim::crc32(frame.subspan(8), c);
  return c;
}

}  // namespace

ReliableChannel::ReliableChannel(Endpoint& ep, AddressMap map,
                                 sim::NodeId self, Params params)
    : ep_(ep),
      map_(map),
      self_(self),
      params_(params),
      engine_(ep.ap().kernel(), 'n' + std::to_string(self) + ".fw.retx",
              params.retransmit),
      tx_mutex_(ep.ap().kernel(), 1),
      window_sig_(ep.ap().kernel()),
      delivered_sig_(ep.ap().kernel()) {
  if (params_.window == 0) {
    throw std::invalid_argument("ReliableChannel: zero window");
  }
}

void ReliableChannel::start() {
  if (started_) {
    throw std::logic_error("ReliableChannel: started twice");
  }
  started_ = true;
  engine_.bind(
      [this](sim::NodeId peer) -> sim::Co<void> {
        co_await resend_window(peer);
      },
      [this](sim::NodeId peer) { declare_failed(peer); });
  engine_.start();
  ep_.ap().run(dispatch_loop());
}

std::vector<std::byte> ReliableChannel::make_frame(
    Kind kind, std::uint64_t seq, std::span<const std::byte> payload) const {
  Wire w;
  w.kind = static_cast<std::uint8_t>(kind);
  w.seq = seq;
  std::vector<std::byte> frame(sizeof(Wire) + payload.size());
  std::memcpy(frame.data(), &w, sizeof(Wire));
  if (!payload.empty()) {
    std::memcpy(frame.data() + sizeof(Wire), payload.data(), payload.size());
  }
  const std::uint32_t crc = frame_crc(frame);
  std::memcpy(frame.data() + offsetof(Wire, crc), &crc, sizeof(crc));
  return frame;
}

sim::Co<void> ReliableChannel::send(sim::NodeId dest,
                                    std::span<const std::byte> payload) {
  assert(started_ && "ReliableChannel::start() not called");
  if (payload.size() > kMaxPayload) {
    throw std::invalid_argument("ReliableChannel: payload too large");
  }
  TxPeer& p = tx_[dest];
  while (p.window.size() >= params_.window && !p.failed) {
    co_await window_sig_;
  }
  if (p.failed) {
    co_return;  // peer declared dead; check failed(dest)
  }
  const std::uint64_t seq = p.next_seq++;
  const auto frame = std::make_shared<const std::vector<std::byte>>(
      make_frame(Kind::kData, seq, payload));
  p.window.emplace_back(seq, frame);
  stats_.payloads_sent.inc();
  co_await send_frame(dest, *frame, /*control=*/false);
  engine_.arm(dest);
}

sim::Co<std::vector<std::byte>> ReliableChannel::recv(sim::NodeId src) {
  RxPeer& r = rx_[src];
  while (r.ready.empty()) {
    co_await delivered_sig_;
  }
  std::vector<std::byte> payload = std::move(r.ready.front());
  r.ready.pop_front();
  co_return payload;
}

sim::Co<void> ReliableChannel::send_frame(sim::NodeId dest,
                                          const std::vector<std::byte>& frame,
                                          bool control) {
  // One tx flow at a time: application sends, dispatcher ACKs and engine
  // retransmissions all interleave on the same endpoint.
  co_await tx_mutex_.acquire();
  if (control) {
    // Second network priority via the trusted raw queue: control frames
    // overtake bulk data in the fabric.
    co_await ep_.send_raw(dest, AddressMap::kUser0L, frame,
                          /*high_priority=*/true);
  } else {
    co_await ep_.send(map_.user0(dest), frame);
  }
  stats_.frames_sent.inc();
  tx_mutex_.release();
}

sim::Co<void> ReliableChannel::send_control(sim::NodeId dest, Kind kind,
                                            std::uint64_t seq) {
  co_await send_frame(dest, make_frame(kind, seq, {}), /*control=*/true);
  if (kind == Kind::kAck) {
    stats_.acks_sent.inc();
  } else {
    stats_.nacks_sent.inc();
  }
}

sim::Co<void> ReliableChannel::dispatch_loop() {
  for (;;) {
    Message m = co_await ep_.recv();
    co_await handle(std::move(m));
  }
}

sim::Co<void> ReliableChannel::handle(Message m) {
  stats_.frames_received.inc();
  if (m.data.size() < sizeof(Wire)) {
    stats_.corrupt_rejected.inc();
    co_return;
  }
  Wire w;
  std::memcpy(&w, m.data.data(), sizeof(Wire));
  if (w.version != kVersion || frame_crc(m.data) != w.crc) {
    // Corrupted in flight: discard silently. Recovery is the sender's
    // job (gap NACK or retransmit timeout).
    stats_.corrupt_rejected.inc();
    co_return;
  }
  const auto peer = static_cast<sim::NodeId>(m.src_node);
  switch (static_cast<Kind>(w.kind)) {
    case Kind::kData:
      co_await handle_data(peer, w.seq,
                           std::span(m.data).subspan(sizeof(Wire)));
      break;
    case Kind::kAck:
      co_await handle_ack(peer, w.seq, /*nack=*/false);
      break;
    case Kind::kNack:
      co_await handle_ack(peer, w.seq, /*nack=*/true);
      break;
    default:
      stats_.corrupt_rejected.inc();
      break;
  }
}

sim::Co<void> ReliableChannel::handle_data(
    sim::NodeId peer, std::uint64_t seq, std::span<const std::byte> payload) {
  RxPeer& r = rx_[peer];
  if (seq == r.expected) {
    ++r.expected;
    r.ready.emplace_back(payload.begin(), payload.end());
    stats_.payloads_delivered.inc();
    delivered_sig_.pulse();
    co_await send_control(peer, Kind::kAck, r.expected - 1);
  } else if (seq < r.expected) {
    // Retransmitted duplicate: discard, but re-ACK so the sender's window
    // advances even when the original ACK was lost.
    stats_.duplicates.inc();
    co_await send_control(peer, Kind::kAck, r.expected - 1);
  } else {
    // Sequence gap: something before `seq` was lost. NACK once per gap
    // position; later out-of-order arrivals for the same gap stay silent
    // (the sender's timeout covers a lost NACK).
    stats_.out_of_order.inc();
    if (r.nacked_for != r.expected) {
      r.nacked_for = r.expected;
      co_await send_control(peer, Kind::kNack, r.expected - 1);
    }
  }
}

sim::Co<void> ReliableChannel::handle_ack(sim::NodeId peer,
                                          std::uint64_t acked, bool nack) {
  TxPeer& p = tx_[peer];
  if (nack) {
    stats_.nacks_received.inc();
  } else {
    stats_.acks_received.inc();
  }
  bool progressed = false;
  while (!p.window.empty() && p.window.front().first <= acked) {
    p.window.pop_front();
    progressed = true;
  }
  if (progressed) {
    window_sig_.pulse();
    engine_.progress(peer);
  }
  if (p.window.empty()) {
    engine_.disarm(peer);
  }
  if (nack && !p.window.empty()) {
    // Go-back-N fast path, deduped so a burst of out-of-order arrivals
    // behind one loss triggers a single resend of the window.
    const std::uint64_t want = acked + 1;
    if (want > p.nack_resent_for) {
      p.nack_resent_for = want;
      co_await resend_window(peer);
    }
  }
}

sim::Co<void> ReliableChannel::resend_window(sim::NodeId peer) {
  TxPeer& p = tx_[peer];
  // Snapshot: ACKs arriving while we suspend inside send_frame() mutate
  // the window; stale resends are discarded as duplicates at the receiver.
  // Frames are shared and immutable, so the snapshot is refcount bumps,
  // not deep copies of every unacked frame.
  std::vector<Frame> frames;
  frames.reserve(p.window.size());
  for (const auto& [seq, frame] : p.window) {
    frames.push_back(frame);
  }
  for (const auto& frame : frames) {
    if (p.failed) {
      co_return;
    }
    co_await send_frame(peer, *frame, /*control=*/false);
    stats_.retransmitted.inc();
  }
}

void ReliableChannel::declare_failed(sim::NodeId peer) {
  TxPeer& p = tx_[peer];
  if (p.failed) {
    return;
  }
  p.failed = true;
  window_sig_.pulse();  // release senders blocked on window space
  if (give_up_) {
    give_up_(peer);
  }
}

bool ReliableChannel::failed(sim::NodeId peer) const {
  const auto it = tx_.find(peer);
  return it != tx_.end() && it->second.failed;
}

std::size_t ReliableChannel::unacked() const {
  std::size_t n = 0;
  for (const auto& [peer, p] : tx_) {
    n += p.window.size();
  }
  return n;
}

void ReliableChannel::ckpt_save(ckpt::Writer& w) const {
  w.u64(tx_.size());
  for (const auto& [peer, p] : tx_) {
    w.u32(peer);
    w.u64(p.next_seq);
    w.u64(p.nack_resent_for);
    w.b(p.failed);
    w.u64(p.window.size());
    for (const auto& [seq, frame] : p.window) {
      w.u64(seq);
      w.u32(sim::crc32(*frame));
    }
  }
  w.u64(rx_.size());
  for (const auto& [peer, p] : rx_) {
    w.u32(peer);
    w.u64(p.expected);
    w.u64(p.nacked_for);
    w.u64(p.ready.size());
    std::uint32_t crc = 0;
    for (const std::vector<std::byte>& payload : p.ready) {
      crc = sim::crc32(payload, crc);
    }
    w.u32(crc);
  }
  ckpt::save(w, stats_.payloads_sent);
  ckpt::save(w, stats_.payloads_delivered);
  ckpt::save(w, stats_.frames_sent);
  ckpt::save(w, stats_.frames_received);
  ckpt::save(w, stats_.retransmitted);
  ckpt::save(w, stats_.acks_sent);
  ckpt::save(w, stats_.nacks_sent);
  ckpt::save(w, stats_.acks_received);
  ckpt::save(w, stats_.nacks_received);
  ckpt::save(w, stats_.duplicates);
  ckpt::save(w, stats_.out_of_order);
  ckpt::save(w, stats_.corrupt_rejected);
  engine_.ckpt_save(w);
}

}  // namespace sv::msg
