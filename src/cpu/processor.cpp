#include "cpu/processor.hpp"

#include <algorithm>
#include <stdexcept>

#include "ckpt/stats_io.hpp"

namespace sv::cpu {

Processor::Processor(sim::Kernel& kernel, std::string name, mem::MemBus& bus,
                     mem::SnoopingCache* cache, Params params)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      bus_(bus),
      cache_(cache),
      bus_id_(bus.attach(this)),
      mutex_(kernel, 1) {}

void Processor::trace_busy(const char* what, sim::Tick start, sim::Tick end) {
  trace::Tracer* tr = kernel_.tracer();
  if (tr == nullptr || end <= start) {
    return;
  }
  if (trace_track_ == trace::kNoTrack) {
    trace_track_ = tr->track_for(name(), "cpu");
  }
  tr->span(trace_track_, what, start, end);
}

sim::Co<void> Processor::work(sim::Cycles c) {
  const sim::Tick dur = params_.clock.to_ticks(c);
  busy_.add_busy(dur);
  trace_busy("work", now(), now() + dur);
  co_await sim::delay(kernel_, dur);
}

sim::Co<void> Processor::load(mem::Addr a, std::span<std::byte> out) {
  if (cache_ == nullptr) {
    co_await load_uncached(a, out);
    co_return;
  }
  // Reserve the work-phase key plus one key per cache chunk up front. The
  // reservation pins where this access sits in the global dispatch order,
  // which the golden corpus and the benchmark digests are recorded against
  // (DESIGN.md §12.1).
  const sim::Tick t0 = now();
  const sim::Tick work_ticks = params_.clock.to_ticks(kOpOverhead);
  const std::uint64_t s0 =
      kernel_.reserve_seqs(1 + mem::SnoopingCache::chunk_count(a, out.size()));
  busy_.add_busy(work_ticks);
  trace_busy("work", t0, t0 + work_ticks);
  co_await sim::seq_delay(kernel_, t0 + work_ticks, s0);
  co_await cache_->read(a, out, s0 + 1);
  ops_.inc();
  busy_.add_busy(now() - t0 - work_ticks);
  trace_busy("load", t0 + work_ticks, now());
}

sim::Co<void> Processor::store(mem::Addr a, std::span<const std::byte> in) {
  if (cache_ == nullptr) {
    co_await store_uncached(a, in);
    co_return;
  }
  const sim::Tick t0 = now();
  const sim::Tick work_ticks = params_.clock.to_ticks(kOpOverhead);
  const std::uint64_t s0 =
      kernel_.reserve_seqs(1 + mem::SnoopingCache::chunk_count(a, in.size()));
  busy_.add_busy(work_ticks);
  trace_busy("work", t0, t0 + work_ticks);
  co_await sim::seq_delay(kernel_, t0 + work_ticks, s0);
  co_await cache_->write(a, in, s0 + 1);
  ops_.inc();
  busy_.add_busy(now() - t0 - work_ticks);
  trace_busy("store", t0 + work_ticks, now());
}

sim::Co<void> Processor::load_uncached(mem::Addr a,
                                       std::span<std::byte> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const mem::Addr addr = a + done;
    const std::size_t to_boundary = 8 - (addr % 8);
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>({out.size() - done, to_boundary, 8}));
    const sim::Tick t0 = now();
    const sim::Tick work_ticks = params_.clock.to_ticks(kOpOverhead);
    // The issue-overhead charge is folded into the transaction as a lead-in
    // (req.lead_ticks) instead of a separate work() delay: the slow path
    // replays it event-for-event, and the fast path completes the whole op
    // — work, arbitration, data tenure — in a single kernel event
    // (DESIGN.md §12). Busy/trace accounting stays here, at the same
    // dispatch the old work() call charged it.
    busy_.add_busy(work_ticks);
    trace_busy("work", t0, t0 + work_ticks);
    mem::BusRequest req;
    req.op = mem::BusOp::kReadSingle;
    req.addr = addr;
    req.size = n;
    req.rdata = out.data() + done;
    req.from_ap = true;
    req.lead_ticks = work_ticks;
    co_await bus_.transact_retry(bus_id_, req);
    ops_.inc();
    busy_.add_busy(now() - t0 - work_ticks);
    trace_busy("load.u", t0 + work_ticks, now());
    done += n;
  }
}

sim::Co<void> Processor::store_uncached(mem::Addr a,
                                        std::span<const std::byte> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const mem::Addr addr = a + done;
    const std::size_t to_boundary = 8 - (addr % 8);
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>({in.size() - done, to_boundary, 8}));
    const sim::Tick t0 = now();
    const sim::Tick work_ticks = params_.clock.to_ticks(kOpOverhead);
    busy_.add_busy(work_ticks);
    trace_busy("work", t0, t0 + work_ticks);
    mem::BusRequest req;
    req.op = mem::BusOp::kWriteSingle;
    req.addr = addr;
    req.size = n;
    req.wdata = in.data() + done;
    req.from_ap = true;
    req.lead_ticks = work_ticks;
    co_await bus_.transact_retry(bus_id_, req);
    ops_.inc();
    busy_.add_busy(now() - t0 - work_ticks);
    trace_busy("store.u", t0 + work_ticks, now());
    done += n;
  }
}

sim::Co<void> Processor::flush_range(mem::Addr a, std::size_t len) {
  if (cache_ == nullptr) {
    co_return;
  }
  const sim::Tick t0 = now();
  co_await cache_->flush_range(a, len);
  busy_.add_busy(now() - t0);
  trace_busy("flush", t0, now());
}

sim::Co<void> Processor::invalidate_line(mem::Addr a) {
  if (cache_ == nullptr) {
    co_return;
  }
  co_await cache_->invalidate_line(a);
}

void Processor::ckpt_save(ckpt::Writer& w) const {
  ckpt::save(w, ops_);
  ckpt::save(w, busy_);
}

}  // namespace sv::cpu
