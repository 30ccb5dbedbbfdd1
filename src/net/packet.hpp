// Arctic network packets.
//
// An Arctic packet carries an 8-byte header and up to 88 bytes of payload
// (the Basic message maximum). Two priority classes exist; the NIU uses the
// high-priority class for protocol replies so that request/reply protocols
// cannot deadlock the network.
//
// The payload lives *inside* the Packet (Payload: a fixed 88-byte buffer
// plus a length), not in a heap vector: packets are built, moved through
// router/NIU queues and retired without ever touching the allocator. A
// Packet is 120 bytes and trivially movable. When a packet must ride
// through a scheduled event (link propagation), it parks in a PacketPool
// and the event captures the 4-byte handle; across domains it rides in the
// kernel's mail by value. The whole steady-state packet path is
// allocation-free (DESIGN.md §11).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace sv::net {

inline constexpr std::size_t kHeaderBytes = 8;
inline constexpr std::size_t kMaxPayloadBytes = 88;
inline constexpr std::size_t kMaxPacketBytes = kHeaderBytes + kMaxPayloadBytes;

inline constexpr unsigned kNumPriorities = 2;
inline constexpr std::uint8_t kPriorityLow = 0;
inline constexpr std::uint8_t kPriorityHigh = 1;

/// Logical receive-queue numbers live in a large namespace; a handful of
/// well-known values address NIU-internal queues rather than user queues.
using QueueId = std::uint16_t;

/// Messages addressed to this queue id are enqueued on the destination
/// NIU's remote command queue and executed by its CTRL.
inline constexpr QueueId kRemoteCmdQueue = 0xFFFF;

/// Inline packet payload: vector-like surface over a fixed 88-byte buffer.
/// Contiguous range of std::byte, so it converts to std::span wherever the
/// old std::vector<std::byte> did.
class Payload {
 public:
  Payload() = default;

  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] std::byte* data() { return buf_; }
  [[nodiscard]] const std::byte* data() const { return buf_; }
  [[nodiscard]] std::byte* begin() { return buf_; }
  [[nodiscard]] std::byte* end() { return buf_ + len_; }
  [[nodiscard]] const std::byte* begin() const { return buf_; }
  [[nodiscard]] const std::byte* end() const { return buf_ + len_; }

  std::byte& operator[](std::size_t i) { return buf_[i]; }
  const std::byte& operator[](std::size_t i) const { return buf_[i]; }

  /// Grow/shrink; new bytes are zeroed (matching vector::resize, which the
  /// wire format and CRC paths relied on).
  void resize(std::size_t n) {
    assert(n <= kMaxPayloadBytes && "payload exceeds the Arctic maximum");
    if (n > len_) {
      std::memset(buf_ + len_, 0, n - len_);
    }
    len_ = static_cast<std::uint8_t>(n);
  }

  void clear() { len_ = 0; }

  /// Accepts any contiguous byte iterator pair (vector, span, pointer).
  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(last - first);
    assert(n <= kMaxPayloadBytes && "payload exceeds the Arctic maximum");
    if (n > 0) {
      std::memcpy(buf_, std::to_address(first), n);
    }
    len_ = static_cast<std::uint8_t>(n);
  }

  Payload& operator=(std::span<const std::byte> s) {
    assign(s.data(), s.data() + s.size());
    return *this;
  }

 private:
  std::byte buf_[kMaxPayloadBytes];
  std::uint8_t len_ = 0;
};

struct Packet {
  sim::NodeId dest = 0;
  sim::NodeId src = 0;
  QueueId dest_queue = 0;
  std::uint8_t priority = kPriorityLow;
  Payload payload;

  // Bookkeeping (not on the wire).
  sim::Tick inject_time = 0;
  std::uint64_t serial = 0;

  [[nodiscard]] std::size_t wire_bytes() const {
    return kHeaderBytes + payload.size();
  }

  [[nodiscard]] std::string summary() const;
};

/// Build a payload from an arbitrary byte span (convenience).
[[nodiscard]] Payload to_payload(std::span<const std::byte> s);

/// Parking lot for in-flight packets, so scheduled events capture a 4-byte
/// handle instead of a 120-byte Packet (which would not fit — by design —
/// in sim::InlineFunc's inline buffer). Slots recycle through a freelist;
/// steady state allocates nothing.
///
/// A pool belongs to one event domain: its owner (net::Link) puts and
/// takes from that domain's events only. Packets that cross domains ride
/// in the kernel's mail instead (sim::Kernel::Mail holds one by value).
class PacketPool {
 public:
  using Handle = std::uint32_t;

  /// Park a packet; returns the handle to fetch it back.
  Handle put(Packet&& pkt) {
    if (free_.empty()) {
      slots_.push_back(std::move(pkt));
      return static_cast<Handle>(slots_.size() - 1);
    }
    const Handle h = free_.back();
    free_.pop_back();
    slots_[h] = std::move(pkt);
    return h;
  }

  /// Fetch and release. Each handle is good for exactly one take().
  Packet take(Handle h) {
    Packet p = std::move(slots_[h]);
    free_.push_back(h);
    return p;
  }

  /// Slots ever created (high-water mark of in-flight packets).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Packet> slots_;  // handles are indices, so slots may move
  std::vector<Handle> free_;
};

}  // namespace sv::net
