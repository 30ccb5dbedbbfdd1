// Reliable delivery over Basic messages, for runs where the fabric is
// allowed to lose or corrupt packets (src/fault/).
//
// The Arctic network itself guarantees loss-free ordered delivery; this
// layer explores the cluster-style alternative the paper's section 7 hints
// at: commodity-fabric semantics recovered in the library. Each
// (src, dst) pair carries a sequence-numbered stream of CRC-checked DATA
// frames over the user queue; the receiver acknowledges cumulatively and
// NACKs sequence gaps. ACK/NACK control frames travel on the *second
// network priority* through the trusted raw queue, so control traffic
// overtakes bulk data in the fabric. Lost frames are recovered go-back-N
// style, either by a NACK (fast path) or by the fw::RetransmitEngine's
// exponential-backoff timeout; when the engine gives up the peer is
// declared failed and the give-up callback runs (the tests wire it to
// niu::Ctrl::shutdown_tx_queue, surfacing exactly like a protection
// shutdown).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "fw/retransmit.hpp"
#include "msg/endpoint.hpp"

namespace sv::msg {

struct ReliableStats {
  sim::Counter payloads_sent;       // application send() calls accepted
  sim::Counter payloads_delivered;  // handed to the application, in order
  sim::Counter frames_sent;         // DATA frames on the wire (incl. retx)
  sim::Counter frames_received;     // frames of any kind that arrived
  sim::Counter retransmitted;       // DATA frames resent (timeout or NACK)
  sim::Counter acks_sent;
  sim::Counter nacks_sent;
  sim::Counter acks_received;
  sim::Counter nacks_received;
  sim::Counter duplicates;        // already-delivered DATA discarded
  sim::Counter out_of_order;      // sequence-gap DATA discarded
  sim::Counter corrupt_rejected;  // CRC / header check failures
};

class ReliableChannel {
 public:
  struct Params {
    std::size_t window = 16;  // max unacked DATA frames per peer
    fw::RetransmitEngine::Params retransmit;
  };

  /// Wire header prepended to every frame.
  static constexpr std::size_t kHeaderBytes = 16;
  /// Max application payload per send(): a Basic slot minus the header.
  static constexpr std::size_t kMaxPayload =
      niu::kBasicMaxData - kHeaderBytes;

  /// The endpoint must be dedicated to this channel: the dispatcher owns
  /// its receive side.
  ReliableChannel(Endpoint& ep, AddressMap map, sim::NodeId self,
                  Params params);

  /// Spawn the receive dispatcher (on the node's aP) and the retransmit
  /// timer. Call once, before any send()/recv().
  void start();

  /// Called (at most once per peer) when retransmission gives up.
  void set_give_up(std::function<void(sim::NodeId peer)> fn) {
    give_up_ = std::move(fn);
  }

  /// Reliable in-order send. Blocks while the window to `dest` is full.
  /// Returns without sending when the peer has been declared failed.
  sim::Co<void> send(sim::NodeId dest, std::span<const std::byte> payload);

  /// Next in-order payload from `src` (blocks until one is delivered).
  sim::Co<std::vector<std::byte>> recv(sim::NodeId src);

  /// True once the retransmit engine gave up on `peer`.
  [[nodiscard]] bool failed(sim::NodeId peer) const;

  /// DATA frames sent but not yet cumulatively acknowledged (the
  /// "retransmit-pending" term of the conservation invariant).
  [[nodiscard]] std::size_t unacked() const;

  [[nodiscard]] const ReliableStats& stats() const { return stats_; }
  [[nodiscard]] fw::RetransmitEngine& engine() { return engine_; }

  /// Snapshot state: every go-back-N window — per tx peer the next
  /// sequence, NACK dedup cursor, failed flag and the unacked frames
  /// (sequence numbers raw, frame bytes as a CRC-32 digest); per rx peer
  /// the expected sequence, gap-NACK cursor and undelivered ready queue —
  /// plus all protocol counters and the retransmit engine's timers.
  void ckpt_save(ckpt::Writer& w) const;

 private:
  enum class Kind : std::uint8_t { kData = 1, kAck = 2, kNack = 3 };

  // Window frames are immutable once built; shared ownership lets
  // resend_window() snapshot the window by bumping refcounts instead of
  // deep-copying every frame (go-back-N under loss used to copy the whole
  // window per NACK).
  using Frame = std::shared_ptr<const std::vector<std::byte>>;

  struct TxPeer {
    std::uint64_t next_seq = 1;
    std::uint64_t nack_resent_for = 0;  // dedupe go-back-N per NACK burst
    bool failed = false;
    // Unacked frames in sequence order (seq, full wire frame).
    std::deque<std::pair<std::uint64_t, Frame>> window;
  };

  struct RxPeer {
    std::uint64_t expected = 1;
    std::uint64_t nacked_for = 0;  // one NACK per distinct gap position
    std::deque<std::vector<std::byte>> ready;  // in-order, undelivered
  };

  [[nodiscard]] std::vector<std::byte> make_frame(
      Kind kind, std::uint64_t seq, std::span<const std::byte> payload) const;
  sim::Co<void> send_frame(sim::NodeId dest,
                           const std::vector<std::byte>& frame, bool control);
  sim::Co<void> send_control(sim::NodeId dest, Kind kind, std::uint64_t seq);
  sim::Co<void> dispatch_loop();
  sim::Co<void> handle(Message m);
  sim::Co<void> handle_data(sim::NodeId peer, std::uint64_t seq,
                            std::span<const std::byte> payload);
  sim::Co<void> handle_ack(sim::NodeId peer, std::uint64_t acked, bool nack);
  /// Go-back-N: resend every frame still in the window to `peer`.
  sim::Co<void> resend_window(sim::NodeId peer);
  void declare_failed(sim::NodeId peer);

  Endpoint& ep_;
  AddressMap map_;
  sim::NodeId self_;
  Params params_;
  fw::RetransmitEngine engine_;
  ReliableStats stats_;
  sim::Semaphore tx_mutex_;      // serializes all endpoint tx activity
  sim::Signal window_sig_;       // pulsed when window space frees (or fail)
  sim::Signal delivered_sig_;    // pulsed when a payload becomes readable
  std::map<sim::NodeId, TxPeer> tx_;
  std::map<sim::NodeId, RxPeer> rx_;
  std::function<void(sim::NodeId)> give_up_;
  bool started_ = false;
};

}  // namespace sv::msg
