#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "ckpt/stats_io.hpp"
#include "fault/fault.hpp"

namespace sv::net {

Link::Link(sim::Kernel& kernel, std::string name, Params params)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      credits_{params.credits_per_priority, params.credits_per_priority},
      credit_freed_(kernel),
      wire_(kernel, 1) {}

sim::Co<void> Link::send(Packet pkt) {
  assert(pkt.priority < kNumPriorities);
  assert(deliver_ && "link has no sink");
  assert(pkt.payload.size() <= kMaxPayloadBytes);

  // Acquire a receiver buffer credit for this priority class.
  while (credits_[pkt.priority] == 0) {
    co_await credit_freed_;
  }
  --credits_[pkt.priority];

  // Serialize on the wire.
  co_await wire_.acquire();
  if (fault::Injector* inj = kernel_.fault_injector()) {
    // Transient outage: the wire is unusable for a window before this
    // packet's head can go out.
    if (const sim::Tick down =
            inj->link_down_window(kernel_, params_.fault_lane, pkt.serial)) {
      co_await sim::delay(kernel_, down);
    }
  }
  const sim::Tick ser =
      kLinkClock.to_ticks(serialize_cycles(pkt.wire_bytes()));
  busy_.add_busy(ser);
  packets_.inc();
  bytes_.inc(pkt.wire_bytes());
  co_await sim::delay(kernel_, ser);
  if (trace::Tracer* tr = kernel_.tracer(); tr != nullptr) {
    if (trace_track_ == trace::kNoTrack) {
      trace_track_ = tr->track_for(name(), "link");
    }
    tr->span(trace_track_, "pkt>n" + std::to_string(pkt.dest), now() - ser,
             now(), pkt.serial);
  }
  wire_.release();

  const sim::Tick prop = kLinkClock.to_ticks(kPropagationCycles);
  if (fault::Injector* inj = kernel_.fault_injector()) {
    if (inj->drop_packet(kernel_, params_.fault_lane, pkt.serial)) {
      // The packet is lost on the wire. The receiver's buffer slot was
      // never filled, so the credit comes back after the propagation
      // delay (when the mangled tail would have been rejected) — without
      // this the credit would leak and the link would wedge.
      dropped_.inc();
      kernel_.schedule(prop, [this, prio = pkt.priority] {
        return_credit(prio);
      });
      co_return;
    }
    if (inj->corrupt_packet(kernel_, params_.fault_lane, pkt.serial)) {
      inj->corrupt(params_.fault_lane, pkt.payload);
    }
  }

  // Propagate: the packet arrives at the far end after the wire delay.
  // The packet parks in the pool so the event captures 12 bytes, not a
  // whole Packet (which would overflow InlineFunc's inline buffer).
  const PacketPool::Handle h = pool_.put(std::move(pkt));
  kernel_.schedule(prop, [this, h] { deliver_(pool_.take(h)); });
}

void Link::return_credit(std::uint8_t priority) {
  assert(priority < kNumPriorities);
  assert(credits_[priority] < params_.credits_per_priority);
  ++credits_[priority];
  credit_freed_.pulse();
}

void Link::ckpt_save(ckpt::Writer& w) const {
  ckpt::save(w, packets_);
  ckpt::save(w, bytes_);
  ckpt::save(w, dropped_);
  ckpt::save(w, busy_);
  for (const std::uint32_t c : credits_) {
    w.u32(c);
  }
}

}  // namespace sv::net
