// Deterministic, config-driven fault injection.
//
// A fault::Injector hangs off the Kernel exactly like the trace::Tracer:
// hook sites in net::Link (packet drop, payload corruption, transient
// link-down windows), net::Router (backpressure stalls, low-priority
// starvation) and niu::RxU (forced Rx-queue overflow) do a single pointer
// null-check when fault injection is off — that check is the entire
// disabled-path cost, so a run with no injector is bit-identical to a
// build without the subsystem.
//
// Decisions are drawn from per-*lane* RNG streams, where a lane is the
// hook site's stable identity: the source node for IdealNetwork wire
// faults, the creation-order link/router index in the fat tree, the node
// id for Rx overflow. Each (category, lane) stream is seeded from the
// master seed alone, so the decision sequence a given hook site sees is
// independent of every other site's traffic — which is what lets a
// machine partitioned into per-node event domains replay exactly the
// fault schedule of the sequential run (and lets any observed failure
// replay from the master seed alone). One Injector is shared by all
// domains; a lane is only ever exercised from the domain that owns it, so
// no locking is needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace sv::sim {
class Config;
}  // namespace sv::sim

namespace sv::fault {

/// What to inject and how often. All rates are per-opportunity
/// probabilities in [0, 1]; a default-constructed Plan injects nothing.
struct Plan {
  std::uint64_t seed = sim::Rng::kDefaultSeed;

  // net::Link faults, evaluated once per packet crossing a link.
  double drop_rate = 0.0;     // packet vanishes on the wire
  double corrupt_rate = 0.0;  // one payload bit flips in flight
  double link_down_rate = 0.0;
  sim::Tick link_down_ticks = 2'000'000;  // 2 us outage per event

  // net::Router faults, evaluated once per packet forwarded.
  double router_stall_rate = 0.0;
  std::uint32_t router_stall_cycles = 32;  // backpressure bubble
  double starve_rate = 0.0;
  std::uint32_t starve_cycles = 64;  // extra wait charged to low priority

  // niu::RxU fault: packet discarded as if the Rx queue overflowed.
  double rx_overflow_rate = 0.0;

  /// Scripted drop mode (the scenario explorer, DESIGN.md §14): instead of
  /// drawing from the per-lane RNG streams, drop exactly the opportunities
  /// whose global index — counting every drop_packet() call across all
  /// lanes in arrival order — appears in `drop_script` (kept sorted).
  /// Global arrival order is only deterministic in a single event domain,
  /// so scripted runs require threads == 0 (sys::Machine rejects others).
  bool scripted = false;
  std::vector<std::uint64_t> drop_script;

  [[nodiscard]] bool enabled() const {
    return scripted || drop_rate > 0.0 || corrupt_rate > 0.0 ||
           link_down_rate > 0.0 || router_stall_rate > 0.0 ||
           starve_rate > 0.0 || rx_overflow_rate > 0.0;
  }

  /// Read "fault.*" keys (fault.seed, fault.drop_rate, fault.corrupt_rate,
  /// fault.link_down_rate, fault.link_down_ticks, fault.router_stall_rate,
  /// fault.router_stall_cycles, fault.starve_rate, fault.starve_cycles,
  /// fault.rx_overflow_rate, fault.drop_script). Missing keys keep the
  /// defaults above; a malformed value throws std::invalid_argument naming
  /// the key.
  static Plan from_config(const sim::Config& cfg);
};

/// Counts of injected faults, per category.
struct Stats {
  sim::Counter drops;
  sim::Counter corrupts;
  sim::Counter link_downs;
  sim::Counter router_stalls;
  sim::Counter starvations;
  sim::Counter rx_overflows;
};

class Injector {
 public:
  /// `lanes` pre-allocates that many lanes; more are grown on demand, but
  /// on-demand growth is only safe while a single event domain is running
  /// (the fat-tree case). A partitioned machine must pre-allocate every
  /// lane its domains will touch.
  Injector(std::string name, Plan plan, std::size_t lanes = 1);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Plan& plan() const { return plan_; }

  /// Counts aggregated over all lanes, in lane order.
  [[nodiscard]] Stats stats() const;

  // --- Hook-point decisions. Each call advances only the (category, lane)
  // stream it names; `k` is the calling domain's kernel, used for the
  // current time and the trace marker. `flow` tags the marker. ---

  /// True: the packet is lost on the wire.
  bool drop_packet(sim::Kernel& k, std::uint32_t lane, std::uint64_t flow);

  /// True: the packet's payload should be corrupted (call corrupt()).
  bool corrupt_packet(sim::Kernel& k, std::uint32_t lane, std::uint64_t flow);

  /// Flip one uniformly-chosen bit of `payload` (no-op when empty).
  void corrupt(std::uint32_t lane, std::span<std::byte> payload);

  /// Nonzero: the link goes down for that many ticks before this packet
  /// can serialize.
  sim::Tick link_down_window(sim::Kernel& k, std::uint32_t lane,
                             std::uint64_t flow);

  /// Nonzero: the router output port stalls for that many cycles
  /// (backpressure bubble) before forwarding.
  std::uint32_t router_stall_cycles(sim::Kernel& k, std::uint32_t lane);

  /// Nonzero: a low-priority packet is starved for that many extra cycles.
  std::uint32_t starvation_cycles(sim::Kernel& k, std::uint32_t lane);

  /// True: the RxU discards this packet as a forced Rx-queue overflow.
  bool rx_overflow(sim::Kernel& k, std::uint32_t lane, std::uint64_t flow);

  /// Seed for a named stream: master seed mixed with an FNV-1a hash of the
  /// stream name, so streams are decorrelated but fully determined by
  /// (master, name).
  [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t master,
                                                 std::string_view stream);

  /// Per-lane variant: stream_seed further mixed with the lane index.
  [[nodiscard]] static std::uint64_t lane_seed(std::uint64_t master,
                                               std::string_view stream,
                                               std::uint32_t lane);

  /// Total drop opportunities observed so far (drop_packet calls), summed
  /// over all lanes in lane order. In a scripted (single-domain) run this
  /// equals the global opportunity index the script addresses; the
  /// explorer uses it as the reachability horizon for extending patterns.
  [[nodiscard]] std::uint64_t drop_opportunities() const;

  /// Snapshot state: per-lane decision cursors (one per category — a count
  /// of draws taken), the six raw RNG streams per lane, per-lane injection
  /// counters, and the scripted-mode cursor. A restored run's streams must
  /// land on the same words bit-for-bit (the fault_matrix_test oracle).
  void ckpt_save(ckpt::Writer& w) const;

 private:
  struct Lane {
    Lane(std::uint64_t master, std::uint32_t index);

    sim::Rng drop;
    sim::Rng corrupt;
    sim::Rng down;
    sim::Rng stall;
    sim::Rng starve;
    sim::Rng overflow;
    Stats stats;
    /// Decision cursors: how many times each category's hook ran on this
    /// lane (whether or not it injected). Purely additive bookkeeping —
    /// the RNG draw sequence is unchanged.
    struct Cursors {
      std::uint64_t drop = 0;
      std::uint64_t corrupt = 0;
      std::uint64_t down = 0;
      std::uint64_t stall = 0;
      std::uint64_t starve = 0;
      std::uint64_t overflow = 0;
    } cursors;
  };

  Lane& lane(std::uint32_t i);

  /// Record the fault on the lane's "net"/"faults.n<lane>" trace track of
  /// the calling domain's tracer (if tracing).
  void mark(sim::Kernel& k, std::uint32_t lane, const char* what,
            std::uint64_t flow);

  std::string name_;
  Plan plan_;
  // deque: lane references stay valid across on-demand growth.
  std::deque<Lane> lanes_;
  /// Global drop-opportunity cursor, advanced only in scripted mode (which
  /// requires a single event domain — see Plan::scripted).
  std::uint64_t script_cursor_ = 0;
};

}  // namespace sv::fault
