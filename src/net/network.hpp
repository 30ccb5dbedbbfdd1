// Network facade: what a NIU sees of the interconnect.
//
// Implementations: FatTreeNetwork (the Arctic fat tree) and IdealNetwork
// (fixed-latency, used for unit tests and as an ablation baseline).
//
// Domains: IdealNetwork takes the event domain (sim::Kernel) of every
// node — one kernel shared by all of them on a sequential machine, one each
// on a partitioned one (sim::ParallelKernel). Every per-packet action runs
// in the *source* node's domain, delivery goes to the destination's domain
// through the kernel mailbox (the packet rides in the mail by value), and
// all bookkeeping is sharded per node so no two domains ever touch the
// same counter. FatTreeNetwork models shared routers and therefore
// requires the whole machine in one domain.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace sv::net {

class Network : public sim::SimObject {
 public:
  using Deliver = std::function<void(Packet&&)>;

  Network(sim::Kernel& kernel, std::string name, std::size_t nodes)
      : sim::SimObject(kernel, std::move(name)), shards_(nodes) {}

  /// Register the delivery callback for packets addressed to `node`.
  virtual void set_endpoint(sim::NodeId node, Deliver deliver) = 0;

  /// Inject a packet at its source node. Suspends the caller for source-link
  /// credit and serialization (this is the NIU TxU's injection port).
  virtual sim::Co<void> inject(Packet pkt) = 0;

  /// The endpoint signals it has drained one packet of `priority` from its
  /// ingress buffer, freeing a flow-control credit.
  virtual void consume_done(sim::NodeId node, std::uint8_t priority) = 0;

  [[nodiscard]] virtual std::size_t num_nodes() const = 0;

  // Aggregated views over the per-node shards, merged in node order so the
  // result is identical however the machine was partitioned. Call only
  // while no domain is executing (sequentially, or at an epoch barrier).
  [[nodiscard]] std::uint64_t packets_delivered() const;
  [[nodiscard]] sim::Histogram transit_ps() const;

  /// Packet-conservation snapshot for the invariant checker: every packet
  /// accepted by inject() must eventually be delivered or (fault-)dropped.
  struct Audit {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;

    [[nodiscard]] std::uint64_t in_flight() const {
      return injected - delivered - dropped;
    }
    /// True once the network has quiesced with no packet unaccounted for.
    [[nodiscard]] bool balanced() const {
      return injected == delivered + dropped;
    }
  };
  [[nodiscard]] virtual Audit audit() const;

  /// Snapshot state: every shard in node order — packet counters, transit
  /// histogram, serial and mailbox-post sequences. Call only at a barrier
  /// (same rule as the aggregated views above).
  void ckpt_save(ckpt::Writer& w) const;

 protected:
  // Per-packet bookkeeping is sharded by node — injection and serial
  // assignment by source, delivery by destination — so each shard is only
  // ever touched from the domain that owns that node. Cache-line alignment
  // keeps neighbouring shards from false-sharing under parallel execution.
  void count_inject(sim::NodeId src) { shards_[src].injected.inc(); }
  void count_drop(sim::NodeId src) { shards_[src].dropped.inc(); }
  void count_delivery(const sim::Kernel& k, const Packet& pkt) {
    Shard& s = shards_[pkt.dest];
    s.delivered.inc();
    s.transit.sample(k.now() - pkt.inject_time);
  }

  /// Deterministic packet serial for an unstamped packet: namespaced by
  /// source node, sequential within it. Serial 0 stays reserved ("no flow
  /// id assigned yet"); NIU-stamped flow ids live in a disjoint namespace
  /// (bit 62 set).
  std::uint64_t assign_serial(sim::NodeId src) {
    return ((static_cast<std::uint64_t>(src) + 1) << 40) |
           ++shards_[src].serial_seq;
  }

  /// Monotone per-source sequence for mailbox posts (the `seq` in the
  /// deterministic (tick, source, sequence) delivery order).
  std::uint64_t next_post_seq(sim::NodeId src) {
    return ++shards_[src].post_seq;
  }

 private:
  struct alignas(64) Shard {
    sim::Counter injected;
    sim::Counter delivered;
    sim::Counter dropped;
    sim::Histogram transit;
    std::uint64_t serial_seq = 0;
    std::uint64_t post_seq = 0;
  };

  std::vector<Shard> shards_;
};

/// Fixed-latency, contention-free network. Each source still serializes its
/// own injections at link bandwidth (so bandwidth numbers stay meaningful),
/// but the fabric itself is ideal. Per-(src,dst,priority) FIFO order holds.
/// The latency is the lookahead of the ParallelKernel that steps the
/// machine, which rejects 0.
class IdealNetwork final : public Network {
 public:
  struct Params {
    sim::Tick latency = 500 * sim::kNanosecond;
  };

  /// One node per entry of `domains`: node n's injection runs in
  /// domains[n], and delivery reaches domains[dest] through the mailbox.
  IdealNetwork(std::vector<sim::Kernel*> domains, std::string name,
               Params params);

  void set_endpoint(sim::NodeId node, Deliver deliver) override;
  sim::Co<void> inject(Packet pkt) override;
  void consume_done(sim::NodeId node, std::uint8_t priority) override;
  [[nodiscard]] std::size_t num_nodes() const override {
    return domains_.size();
  }

 private:
  std::vector<sim::Kernel*> domains_;
  Params params_;
  std::vector<Deliver> endpoints_;
  std::vector<std::unique_ptr<sim::Semaphore>> inject_ports_;
  // Per-source wire track, cached lazily; slot n is only touched by the
  // domain owning node n.
  std::vector<trace::TrackId> wire_tracks_;
};

}  // namespace sv::net
