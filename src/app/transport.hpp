// Mechanism-independent message transport for the application runtime.
//
// The runtime (src/app/runtime.hpp) speaks one interface — ranked,
// tagged, arbitrary-size messages — and each concrete Transport maps it
// onto one of the machine's communication mechanisms:
//
//   MsgTransport       Basic messages over a dedicated user Endpoint
//   ReliableTransport  ReliableChannel streams (survives a lossy fabric)
//   ShmTransport       single-writer rings in the NUMA (or S-COMA)
//                      shared-memory window
//
// A Transport instance lives on one node and is driven entirely by that
// node's aP: sends run on the sending rank's coroutine, receives are fed
// by per-node dispatcher coroutines that parse arriving frames and
// complete messages into a tag-matching mailbox. Cross-node interaction
// happens only through the underlying mechanism, so every transport
// composes with the partitioned machine (bit-identical across threads=N)
// and with fault injection.
//
// Wire format: every fragment starts with a 16-byte header carrying the
// (src_rank, dst_rank, tag) triple plus fragmentation bookkeeping; large
// application messages are split into as many frames as the mechanism's
// payload capacity requires and reassembled keyed by (src, dst, seq), so
// interleaved messages from concurrent nonblocking sends cannot corrupt
// each other.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "msg/reliable.hpp"
#include "sim/stats.hpp"
#include "sys/node.hpp"

namespace sv::ckpt {
class Writer;
}  // namespace sv::ckpt

namespace sv::app {

/// recv() wildcards.
inline constexpr std::uint16_t kAnyRank = 0xFFFF;
inline constexpr std::uint32_t kAnyTag = 0xFFFF'FFFF;
/// Application tags must stay below this; the collective implementations
/// own the rest of the tag space (runtime.cpp).
inline constexpr std::uint32_t kMaxUserTag = 0x3FFF'FFFF;

/// Per-fragment wire header (16 bytes, little-endian fields).
struct WireHeader {
  std::uint16_t src_rank = 0;
  std::uint16_t dst_rank = 0;
  std::uint32_t tag = 0;
  std::uint16_t msg_seq = 0;  // per (src, dst) message counter
  std::uint16_t frag = 0;     // fragment index
  std::uint16_t nfrags = 1;   // fragments in this message
  std::uint16_t len = 0;      // payload bytes in this fragment

  static constexpr std::size_t kBytes = 16;
  void encode(std::byte* out) const;
  [[nodiscard]] static WireHeader decode(std::span<const std::byte> in);
};

/// A completed inbound message, as recv() hands it to the application.
struct Inbound {
  std::uint16_t src_rank = 0;
  std::uint32_t tag = 0;
  std::vector<std::byte> data;
};

struct TransportStats {
  sim::Counter msgs_sent;        // application messages entered
  sim::Counter frames_sent;      // mechanism frames launched (excl. local)
  sim::Counter bytes_sent;       // application payload bytes entered
  sim::Counter msgs_delivered;   // completed messages (incl. local)
  sim::Counter local_delivered;  // same-node short-circuited messages
};

/// Base class: fragmentation, reassembly and the tag-matching mailbox.
/// Subclasses provide the per-frame mechanism hop.
class Transport {
 public:
  Transport(sys::Node& node, sim::Kernel& kernel, std::size_t nranks);
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Spawn dispatcher coroutines on the node's aP. Call once before any
  /// traffic; dispatchers run forever (completion is predicate-based, as
  /// everywhere in the machine).
  virtual void start() = 0;
  [[nodiscard]] virtual const char* kind() const = 0;

  /// Hand one application message to the mechanism. Returns when every
  /// fragment has been accepted (queued/launched), not when delivered.
  /// `local` marks a destination rank living on this same node: the
  /// message short-circuits straight into the mailbox.
  sim::Co<void> send(std::uint16_t src_rank, std::uint16_t dst_rank,
                     std::uint32_t tag, std::span<const std::byte> data,
                     bool local);

  /// First queued message for `dst_rank` matching the (src, tag) filter,
  /// FIFO per filter; suspends until one completes. kAnyRank / kAnyTag
  /// match everything.
  sim::Co<Inbound> recv(std::uint16_t dst_rank, std::uint16_t src_filter,
                        std::uint32_t tag_filter);

  [[nodiscard]] const TransportStats& stats() const { return stats_; }
  [[nodiscard]] sys::Node& node() { return node_; }

  /// Snapshot state. The base writes the counters, per-pair sequence
  /// cursors, and digests of the mailbox and reassembly buffers;
  /// mechanism subclasses with extra state chain back to this.
  virtual void ckpt_save(ckpt::Writer& w) const;

 protected:
  /// Largest application payload one mechanism frame can carry.
  [[nodiscard]] virtual std::size_t frame_payload() const = 0;
  /// Move one wire frame (header + payload) to `dst_node`.
  virtual sim::Co<void> send_frame(sim::NodeId dst_node,
                                   std::span<const std::byte> frame) = 0;

  /// Dispatchers feed every arriving frame here; completed messages land
  /// in the mailbox and wake matching receivers.
  void deliver_frame(std::span<const std::byte> frame);

  sys::Node& node_;
  sim::Kernel& kernel_;
  std::size_t nranks_;

 private:
  struct Assembly {
    std::uint32_t tag = 0;
    std::uint16_t got = 0;
    std::vector<std::vector<std::byte>> parts;
  };

  void deliver(std::uint16_t src_rank, std::uint16_t dst_rank,
               std::uint32_t tag, std::vector<std::byte> data);

  sim::Signal delivered_;
  TransportStats stats_;
  std::vector<std::deque<Inbound>> mbox_;      // [dst_rank]
  std::vector<std::uint16_t> next_seq_;        // [src * nranks + dst]
  std::map<std::uint64_t, Assembly> assembling_;
};

/// Basic messages over a dedicated user endpoint (Express-class latency;
/// relies on the Arctic fabric's loss-free ordered delivery).
class MsgTransport final : public Transport {
 public:
  MsgTransport(sys::Node& node, sim::Kernel& kernel, msg::AddressMap map,
               std::size_t nranks);

  void start() override;
  [[nodiscard]] const char* kind() const override { return "msg"; }

 protected:
  [[nodiscard]] std::size_t frame_payload() const override {
    return niu::kBasicMaxData - WireHeader::kBytes;
  }
  sim::Co<void> send_frame(sim::NodeId dst_node,
                           std::span<const std::byte> frame) override;

 private:
  sim::Co<void> rx_loop();

  msg::Endpoint ep_;
  msg::AddressMap map_;
};

/// ReliableChannel streams: go-back-N recovery on top of Basic messages,
/// for runs where the fabric drops or corrupts packets (src/fault/).
class ReliableTransport final : public Transport {
 public:
  ReliableTransport(sys::Node& node, sim::Kernel& kernel,
                    msg::AddressMap map, std::size_t nranks,
                    msg::ReliableChannel::Params params);

  void start() override;
  [[nodiscard]] const char* kind() const override { return "reliable"; }

  [[nodiscard]] msg::ReliableChannel& channel() { return chan_; }

  /// Base state plus the reliable channel's windows and timers.
  void ckpt_save(ckpt::Writer& w) const override;

 protected:
  [[nodiscard]] std::size_t frame_payload() const override {
    return msg::ReliableChannel::kMaxPayload - WireHeader::kBytes;
  }
  sim::Co<void> send_frame(sim::NodeId dst_node,
                           std::span<const std::byte> frame) override;

 private:
  sim::Co<void> rx_loop(sim::NodeId peer);

  msg::Endpoint ep_;
  msg::ReliableChannel chan_;
};

/// Shared-memory rings: one single-writer ring page per directed node
/// pair, placed so its NUMA home is the *receiver* — the receiver's
/// polling sweep touches only local pages while the sender pays the
/// remote-store cost, matching how shared-memory message queues are laid
/// out in practice. With Region::kScoma the same layout runs over the
/// cache-coherent S-COMA window instead (plain cached accesses).
class ShmTransport final : public Transport {
 public:
  enum class Region { kNuma, kScoma };

  /// Ring geometry: one 4 KB page per (src, dst) pair, a consumer
  /// cursor word at offset 0 and 31 slots of 128 bytes from offset 128.
  /// Each slot carries (seq u32, len u32, frame). Slot seq values are
  /// strictly increasing per slot (seq, seq+31, ...), so a stale value
  /// can never alias a fresh one.
  static constexpr std::uint32_t kPageBytes = 4096;
  static constexpr std::uint32_t kSlotBytes = 128;
  static constexpr std::uint32_t kSlots = 31;
  static constexpr std::uint32_t kSlotDataOff = 8;
  /// Wait between two polls of a ring that had nothing new.
  static constexpr sim::Tick kPollInterval = 500 * sim::kNanosecond;

  ShmTransport(sys::Node& node, sim::Kernel& kernel, std::size_t nranks,
               std::size_t nnodes, Region region);

  void start() override;
  [[nodiscard]] const char* kind() const override {
    return region_ == Region::kNuma ? "shm" : "shm-scoma";
  }

  /// Base state plus every ring's sequence/flow-control cursors.
  void ckpt_save(ckpt::Writer& w) const override;

 protected:
  [[nodiscard]] std::size_t frame_payload() const override {
    return kSlotBytes - kSlotDataOff - WireHeader::kBytes;  // 104
  }
  sim::Co<void> send_frame(sim::NodeId dst_node,
                           std::span<const std::byte> frame) override;

 private:
  struct TxRing {
    sim::Semaphore gate;  // serializes senders sharing this pair page
    std::uint32_t next_seq = 1;
    std::uint32_t consumed_seen = 0;
    /// Posted 8-byte stores since the last completed round-trip to this
    /// home (uncached rings only; cached stores block in the coherence
    /// protocol and need no extra flow control).
    std::uint32_t unflushed = 0;
  };
  struct RxRing {
    std::uint32_t expected = 1;
  };

  /// Pair pages start 16 node-strides into the window, leaving the low
  /// pages free for application data. Page (16 + src) * nnodes + dst is
  /// congruent to dst modulo nnodes, i.e. NUMA-homed at the receiver.
  [[nodiscard]] mem::Addr page_addr(sim::NodeId src, sim::NodeId dst) const;
  sim::Co<std::uint32_t> load_u32(mem::Addr a);
  sim::Co<void> store_u32(mem::Addr a, std::uint32_t v);

  sim::Co<void> rx_sweep();

  /// Ensure the next `ops` posted stores to `tx`'s home cannot overflow
  /// the home's firmware request queue: once the per-destination window
  /// is exhausted, read the consumer word — client-to-home delivery is
  /// FIFO, so a completed read proves every earlier posted store has been
  /// drained from the queue.
  sim::Co<void> reserve_stores(TxRing& tx, mem::Addr page,
                               std::uint32_t ops);

  Region region_;
  std::size_t nnodes_;
  mem::Addr base_;
  bool cached_;
  std::uint32_t store_window_ = 0;  // 0 = no windowing (cached rings)
  std::deque<TxRing> tx_;  // [dst_node]
  std::deque<RxRing> rx_;  // [src_node]
};

}  // namespace sv::app
