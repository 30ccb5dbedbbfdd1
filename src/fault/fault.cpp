#include "fault/fault.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "ckpt/stats_io.hpp"
#include "sim/config.hpp"
#include "trace/trace.hpp"

namespace sv::fault {

Plan Plan::from_config(const sim::Config& cfg) {
  Plan p;
  p.seed = cfg.get_u64("fault.seed", p.seed);
  p.drop_rate = cfg.get_double("fault.drop_rate", p.drop_rate);
  p.corrupt_rate = cfg.get_double("fault.corrupt_rate", p.corrupt_rate);
  p.link_down_rate = cfg.get_double("fault.link_down_rate", p.link_down_rate);
  p.link_down_ticks = cfg.get_u64("fault.link_down_ticks", p.link_down_ticks);
  p.router_stall_rate =
      cfg.get_double("fault.router_stall_rate", p.router_stall_rate);
  p.router_stall_cycles = static_cast<std::uint32_t>(
      cfg.get_u64("fault.router_stall_cycles", p.router_stall_cycles));
  p.starve_rate = cfg.get_double("fault.starve_rate", p.starve_rate);
  p.starve_cycles = static_cast<std::uint32_t>(
      cfg.get_u64("fault.starve_cycles", p.starve_cycles));
  p.rx_overflow_rate =
      cfg.get_double("fault.rx_overflow_rate", p.rx_overflow_rate);
  // fault.drop_script=3,17,42 switches to scripted mode (the explorer's
  // reproduction path): those global drop opportunities and only those.
  // An empty script drops nothing but still counts the opportunities.
  // Every comma-separated item must be one decimal unsigned integer.
  const std::string script = cfg.get_string("fault.drop_script");
  p.scripted = cfg.contains("fault.drop_script");
  for (std::size_t pos = 0; !script.empty() && pos <= script.size();) {
    const std::size_t end = std::min(script.find(',', pos), script.size());
    std::uint64_t idx = 0;
    const auto [ptr, ec] =
        std::from_chars(script.data() + pos, script.data() + end, idx);
    if (ec != std::errc{} || ptr != script.data() + end || end == pos) {
      throw std::invalid_argument(
          "fault.drop_script: expected comma-separated unsigned integers, "
          "got '" + script + "'");
    }
    p.drop_script.push_back(idx);
    pos = end + 1;
  }
  std::sort(p.drop_script.begin(), p.drop_script.end());
  return p;
}

std::uint64_t Injector::stream_seed(std::uint64_t master,
                                    std::string_view stream) {
  // FNV-1a over the stream name, then one SplitMix64-style finalizer over
  // the combination so nearby master seeds still give unrelated streams.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  std::uint64_t z = h ^ (master + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Injector::lane_seed(std::uint64_t master,
                                  std::string_view stream,
                                  std::uint32_t lane) {
  std::uint64_t z = stream_seed(master, stream) ^
                    ((lane + 1ULL) * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Injector::Lane::Lane(std::uint64_t master, std::uint32_t index)
    : drop(lane_seed(master, "link.drop", index)),
      corrupt(lane_seed(master, "link.corrupt", index)),
      down(lane_seed(master, "link.down", index)),
      stall(lane_seed(master, "router.stall", index)),
      starve(lane_seed(master, "router.starve", index)),
      overflow(lane_seed(master, "rxu.overflow", index)) {}

Injector::Injector(std::string name, Plan plan, std::size_t lanes)
    : name_(std::move(name)), plan_(plan) {
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.emplace_back(plan_.seed, static_cast<std::uint32_t>(i));
  }
}

Injector::Lane& Injector::lane(std::uint32_t i) {
  while (i >= lanes_.size()) {
    lanes_.emplace_back(plan_.seed, static_cast<std::uint32_t>(lanes_.size()));
  }
  return lanes_[i];
}

Stats Injector::stats() const {
  Stats s;
  for (const Lane& l : lanes_) {
    s.drops.inc(l.stats.drops.value());
    s.corrupts.inc(l.stats.corrupts.value());
    s.link_downs.inc(l.stats.link_downs.value());
    s.router_stalls.inc(l.stats.router_stalls.value());
    s.starvations.inc(l.stats.starvations.value());
    s.rx_overflows.inc(l.stats.rx_overflows.value());
  }
  return s;
}

void Injector::mark(sim::Kernel& k, std::uint32_t lane, const char* what,
                    std::uint64_t flow) {
  if (trace::Tracer* tr = k.tracer()) {
    const trace::TrackId t =
        tr->track("net", "faults.n" + std::to_string(lane), "fault");
    tr->instant(t, what, k.now(), flow);
  }
}

bool Injector::drop_packet(sim::Kernel& k, std::uint32_t l,
                           std::uint64_t flow) {
  Lane& ln = lane(l);
  ++ln.cursors.drop;
  if (plan_.scripted) {
    const std::uint64_t idx = script_cursor_++;
    if (!std::binary_search(plan_.drop_script.begin(),
                            plan_.drop_script.end(), idx)) {
      return false;
    }
    ln.stats.drops.inc();
    mark(k, l, "fault: drop", flow);
    return true;
  }
  if (plan_.drop_rate <= 0.0 || !ln.drop.chance(plan_.drop_rate)) {
    return false;
  }
  ln.stats.drops.inc();
  mark(k, l, "fault: drop", flow);
  return true;
}

bool Injector::corrupt_packet(sim::Kernel& k, std::uint32_t l,
                              std::uint64_t flow) {
  Lane& ln = lane(l);
  ++ln.cursors.corrupt;
  if (plan_.corrupt_rate <= 0.0 || !ln.corrupt.chance(plan_.corrupt_rate)) {
    return false;
  }
  ln.stats.corrupts.inc();
  mark(k, l, "fault: corrupt", flow);
  return true;
}

void Injector::corrupt(std::uint32_t l, std::span<std::byte> payload) {
  if (payload.empty()) {
    return;
  }
  Lane& ln = lane(l);
  const std::uint64_t bit = ln.corrupt.below(payload.size() * 8);
  payload[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
}

sim::Tick Injector::link_down_window(sim::Kernel& k, std::uint32_t l,
                                     std::uint64_t flow) {
  Lane& ln = lane(l);
  ++ln.cursors.down;
  if (plan_.link_down_rate <= 0.0 ||
      !ln.down.chance(plan_.link_down_rate)) {
    return 0;
  }
  ln.stats.link_downs.inc();
  mark(k, l, "fault: link down", flow);
  return plan_.link_down_ticks;
}

std::uint32_t Injector::router_stall_cycles(sim::Kernel& k, std::uint32_t l) {
  Lane& ln = lane(l);
  ++ln.cursors.stall;
  if (plan_.router_stall_rate <= 0.0 ||
      !ln.stall.chance(plan_.router_stall_rate)) {
    return 0;
  }
  ln.stats.router_stalls.inc();
  mark(k, l, "fault: router stall", 0);
  return plan_.router_stall_cycles;
}

std::uint32_t Injector::starvation_cycles(sim::Kernel& k, std::uint32_t l) {
  Lane& ln = lane(l);
  ++ln.cursors.starve;
  if (plan_.starve_rate <= 0.0 || !ln.starve.chance(plan_.starve_rate)) {
    return 0;
  }
  ln.stats.starvations.inc();
  mark(k, l, "fault: starvation", 0);
  return plan_.starve_cycles;
}

bool Injector::rx_overflow(sim::Kernel& k, std::uint32_t l,
                           std::uint64_t flow) {
  Lane& ln = lane(l);
  ++ln.cursors.overflow;
  if (plan_.rx_overflow_rate <= 0.0 ||
      !ln.overflow.chance(plan_.rx_overflow_rate)) {
    return false;
  }
  ln.stats.rx_overflows.inc();
  mark(k, l, "fault: rx overflow", flow);
  return true;
}

std::uint64_t Injector::drop_opportunities() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) {
    n += l.cursors.drop;
  }
  return n;
}

void Injector::ckpt_save(ckpt::Writer& w) const {
  w.u64(lanes_.size());
  for (const Lane& l : lanes_) {
    ckpt::save(w, l.drop);
    ckpt::save(w, l.corrupt);
    ckpt::save(w, l.down);
    ckpt::save(w, l.stall);
    ckpt::save(w, l.starve);
    ckpt::save(w, l.overflow);
    w.u64(l.cursors.drop);
    w.u64(l.cursors.corrupt);
    w.u64(l.cursors.down);
    w.u64(l.cursors.stall);
    w.u64(l.cursors.starve);
    w.u64(l.cursors.overflow);
    ckpt::save(w, l.stats.drops);
    ckpt::save(w, l.stats.corrupts);
    ckpt::save(w, l.stats.link_downs);
    ckpt::save(w, l.stats.router_stalls);
    ckpt::save(w, l.stats.starvations);
    ckpt::save(w, l.stats.rx_overflows);
  }
  w.u64(script_cursor_);
}

}  // namespace sv::fault
