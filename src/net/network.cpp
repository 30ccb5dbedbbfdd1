#include "net/network.hpp"

#include <cassert>
#include <stdexcept>

#include "ckpt/stats_io.hpp"
#include "fault/fault.hpp"
#include "net/link.hpp"

namespace sv::net {

std::uint64_t Network::packets_delivered() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.delivered.value();
  }
  return n;
}

std::uint64_t Network::packets_injected() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.injected.value();
  }
  return n;
}

sim::Histogram Network::transit_ps() const {
  sim::Histogram h;
  for (const Shard& s : shards_) {
    h.merge(s.transit);
  }
  return h;
}

Network::Audit Network::audit() const {
  Audit a;
  for (const Shard& s : shards_) {
    a.injected += s.injected.value();
    a.delivered += s.delivered.value();
    a.dropped += s.dropped.value();
  }
  return a;
}

IdealNetwork::IdealNetwork(sim::Kernel& kernel, std::string name,
                           Params params)
    : IdealNetwork(sim::DomainMap(kernel, params.nodes), std::move(name),
                   params) {}

IdealNetwork::IdealNetwork(const sim::DomainMap& domains, std::string name,
                           Params params)
    : Network(domains.of(0), std::move(name), params.nodes),
      domains_(domains),
      params_(params) {
  if (domains_.nodes() != params_.nodes) {
    throw std::invalid_argument(this->name() +
                                ": domain map does not cover all nodes");
  }
  if (domains_.partitioned() && params_.latency == 0) {
    throw std::invalid_argument(
        this->name() + ": partitioned layout needs latency >= 1 (lookahead)");
  }
  endpoints_.resize(params_.nodes);
  wire_tracks_.resize(params_.nodes, trace::kNoTrack);
  inject_ports_.reserve(params_.nodes);
  for (std::size_t i = 0; i < params_.nodes; ++i) {
    inject_ports_.push_back(std::make_unique<sim::Semaphore>(
        domains_.of(static_cast<sim::NodeId>(i)), 1));
  }
}

void IdealNetwork::set_endpoint(sim::NodeId node, Deliver deliver) {
  endpoints_.at(node) = std::move(deliver);
}

sim::Co<void> IdealNetwork::inject(Packet pkt) {
  if (pkt.dest >= params_.nodes) {
    throw std::out_of_range(name() + ": bad destination node");
  }
  assert(endpoints_[pkt.dest] && "destination endpoint not attached");
  // Everything up to delivery runs in the source node's domain.
  sim::Kernel& k = domains_.of(pkt.src);
  pkt.inject_time = k.now();
  if (pkt.serial == 0) {
    pkt.serial = assign_serial(pkt.src);
  }
  count_inject(pkt.src);

  auto& port = *inject_ports_[pkt.src];
  co_await port.acquire();
  const sim::Tick ser_start = k.now();
  co_await sim::delay(
      k, kLinkClock.to_ticks(Link::serialize_cycles(pkt.wire_bytes())));
  if (trace::Tracer* tr = k.tracer(); tr != nullptr) {
    trace::TrackId& track = wire_tracks_[pkt.src];
    if (track == trace::kNoTrack) {
      track = tr->track("net", "wire.n" + std::to_string(pkt.src), "link");
    }
    tr->span(track, "pkt>n" + std::to_string(pkt.dest), ser_start, k.now(),
             pkt.serial);
  }
  port.release();

  if (fault::Injector* inj = k.fault_injector()) {
    if (inj->drop_packet(k, pkt.src, pkt.serial)) {
      count_drop(pkt.src);
      co_return;
    }
    if (inj->corrupt_packet(k, pkt.src, pkt.serial)) {
      inj->corrupt(pkt.src, pkt.payload);
    }
  }

  // Hand the packet to the destination domain through the mailbox. The
  // (when, src, seq) key — not the order domains reach this line — fixes
  // the delivery order, which is what keeps a partitioned run bit-identical
  // to the sequential one. With latency >= 1, `when` is always past the
  // current epoch's boundary, satisfying the conservative lookahead. The
  // post runs here, in the source domain, and the mail carries the packet
  // by value: nothing on this path is shared with another domain.
  const sim::Tick when = k.now() + params_.latency;
  const std::uint64_t seq = next_post_seq(pkt.src);
  sim::Kernel& dest = domains_.of(pkt.dest);
  k.post(dest, when, pkt.src, seq, [this, pkt = std::move(pkt)]() mutable {
    count_delivery(domains_.of(pkt.dest), pkt);
    endpoints_[pkt.dest](std::move(pkt));
  });
}

void IdealNetwork::consume_done(sim::NodeId node, std::uint8_t priority) {
  (void)node;
  (void)priority;  // infinite buffering: nothing to return
}

void Network::ckpt_save(ckpt::Writer& w) const {
  w.u64(shards_.size());
  for (const Shard& s : shards_) {
    ckpt::save(w, s.injected);
    ckpt::save(w, s.delivered);
    ckpt::save(w, s.dropped);
    ckpt::save(w, s.transit);
    w.u64(s.serial_seq);
    w.u64(s.post_seq);
  }
}

}  // namespace sv::net
