// Scripted processor model.
//
// Workloads are coroutines that issue cached/uncached loads and stores,
// cache-management ops and abstract "work" (compute cycles). The same model
// serves the 166 MHz application processor (with its snooping cache) and
// the 100 MHz embedded service processor.
//
// Occupancy accounting: every tick a program spends inside a Processor
// operation is charged to busy(); the paper's aP/sP occupancy comparisons
// come straight from this tracker.
#pragma once

#include <functional>

#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"

namespace sv::cpu {

/// The 166.67 MHz 604e application processor, whose cache times its hits.
inline constexpr sim::Clock kApClock = mem::SnoopingCache::kCpuClock;
/// The 100 MHz service processor.
inline constexpr sim::Clock kSpClock{10000};

class Processor : public sim::SimObject, public mem::BusDevice {
 public:
  /// Issue overhead per memory operation, in processor cycles.
  static constexpr sim::Cycles kOpOverhead = 2;

  struct Params {
    sim::Clock clock = kApClock;  // kSpClock for the sP
  };

  /// `cache` may be null (the sP model runs uncached).
  Processor(sim::Kernel& kernel, std::string name, mem::MemBus& bus,
            mem::SnoopingCache* cache, Params params);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] mem::SnoopingCache* cache() { return cache_; }

  /// Execute for `c` processor cycles (models instruction work).
  sim::Co<void> work(sim::Cycles c);

  /// Cacheable accesses (require a cache).
  sim::Co<void> load(mem::Addr a, std::span<std::byte> out);
  sim::Co<void> store(mem::Addr a, std::span<const std::byte> in);

  /// Uncached accesses (straight to the bus, split into <=8-byte singles).
  sim::Co<void> load_uncached(mem::Addr a, std::span<std::byte> out);
  sim::Co<void> store_uncached(mem::Addr a, std::span<const std::byte> in);

  template <typename T>
  sim::Co<T> load_scalar(mem::Addr a, bool cached = true) {
    T v{};
    auto buf = std::as_writable_bytes(std::span(&v, 1));
    if (cached) {
      co_await load(a, buf);
    } else {
      co_await load_uncached(a, buf);
    }
    co_return v;
  }

  template <typename T>
  sim::Co<void> store_scalar(mem::Addr a, T v, bool cached = true) {
    auto buf = std::as_bytes(std::span(&v, 1));
    if (cached) {
      co_await store(a, buf);
    } else {
      co_await store_uncached(a, buf);
    }
  }

  /// Cache management (dcbf / dcbi equivalents). No-ops without a cache.
  sim::Co<void> flush_range(mem::Addr a, std::size_t len);
  sim::Co<void> invalidate_line(mem::Addr a);

  /// Mutual exclusion for agents sharing this processor (firmware handlers
  /// serialize on the sP through this).
  sim::Co<void> acquire() { co_await mutex_.acquire(); }
  void release() { mutex_.release(); }

  /// Start a program on this processor: a sim::spawn. Nothing serializes
  /// the programs on one processor; they run at once and busy() sums them,
  /// so occupancy can pass 1 (ROADMAP item 5).
  void run(sim::Co<void> program) { sim::spawn(std::move(program)); }

  /// Total simulated time spent executing operations.
  [[nodiscard]] sim::Tick busy() const { return busy_.busy(); }
  [[nodiscard]] const sim::Counter& ops() const { return ops_; }

  /// Snapshot state: op count and busy time.
  void ckpt_save(ckpt::Writer& w) const;

  // --- BusDevice (the processor masters the bus for uncached ops; it never
  // claims addresses or holds state, so snooping is trivial) ---
  [[nodiscard]] std::string_view device_name() const override {
    return name();
  }
  mem::SnoopResult bus_snoop(const mem::BusRequest&) override { return {}; }
  [[nodiscard]] bool bus_snoop_stable(const mem::BusRequest&) const override {
    return true;  // bus_snoop is unconditionally kIgnore
  }

 private:
  /// Record a busy span mirroring a busy_.add_busy charge, so the trace
  /// lane's occupancy equals busy()/now exactly.
  void trace_busy(const char* what, sim::Tick start, sim::Tick end);

  Params params_;
  mem::MemBus& bus_;
  mem::SnoopingCache* cache_;
  int bus_id_;
  sim::Semaphore mutex_;
  sim::BusyTracker busy_;
  sim::Counter ops_;
  trace::TrackId trace_track_ = trace::kNoTrack;
};

}  // namespace sv::cpu
