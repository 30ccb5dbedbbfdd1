// Write-back snooping cache (MESI) modelling the aP's in-line L2 cache card.
//
// One cache instance serves one processor. The processor performs all of its
// cacheable accesses through read()/write(); uncacheable accesses bypass the
// cache and go to the bus directly. The cache participates in the bus snoop
// protocol: it supplies dirty data by intervention, downgrades on others'
// reads, and invalidates on kills/RWITMs — which is what makes the NIU's
// coherent shared-memory mechanisms (S-COMA, NUMA) work against an
// unmodified processor.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "mem/bus.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"

namespace sv::mem {

enum class MesiState : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

[[nodiscard]] std::string_view to_string(MesiState s);

struct CacheStats {
  sim::Counter read_hits;
  sim::Counter read_misses;
  sim::Counter write_hits;
  sim::Counter write_misses;
  sim::Counter writebacks;
  sim::Counter upgrades;          // S -> M kill transactions
  sim::Counter snoop_invalidates;
  sim::Counter snoop_interventions;
  sim::Counter snoop_pushes;      // flush-on-uncached-write-hit
};

class SnoopingCache : public sim::SimObject, public BusDevice {
 public:
  struct Params {
    std::size_t size_bytes = 512 * 1024;
    std::size_t ways = 8;
    sim::Clock cpu_clock{6000};     // clock domain of hit latency
    sim::Cycles hit_cycles = 1;
    sim::Cycles intervention_cycles = 3;  // snoop-supply latency (bus cycles)
  };

  SnoopingCache(sim::Kernel& kernel, std::string name, MemBus& bus,
                Params params);

  /// Sentinel for read/write's chunk_seqs: reserve sequence numbers here,
  /// at call entry. Callers that pre-reserve (the processor reserves its
  /// work key and the chunk keys together) pass the reserved base instead.
  static constexpr std::uint64_t kAutoSeqs = ~std::uint64_t{0};

  /// Number of per-line chunks read()/write() split [addr, addr+size) into —
  /// and thus the number of sequence numbers each consumes (one per chunk;
  /// miss chunks leave theirs unused in every mode).
  [[nodiscard]] static std::size_t chunk_count(Addr addr, std::size_t size);

  /// Cacheable read of up to arbitrary length (split per line internally).
  sim::Co<void> read(Addr addr, std::span<std::byte> out,
                     std::uint64_t chunk_seqs = kAutoSeqs);

  /// Cacheable write.
  sim::Co<void> write(Addr addr, std::span<const std::byte> in,
                      std::uint64_t chunk_seqs = kAutoSeqs);

  /// dcbf: write back (if dirty) and invalidate one line.
  sim::Co<void> flush_line(Addr addr);

  /// dcbi: invalidate one line without writeback (discard).
  sim::Co<void> invalidate_line(Addr addr);

  /// Flush every line intersecting [addr, addr+len).
  sim::Co<void> flush_range(Addr addr, std::size_t len);

  /// State inspection for tests.
  [[nodiscard]] MesiState probe(Addr addr) const;

  /// Functional backdoor: discard every line intersecting [addr, addr+len)
  /// without writeback or timing. Used when a harness pokes DRAM contents
  /// directly (the "OS loader" path) and must drop stale cached copies.
  void purge_range(Addr addr, std::size_t len);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t set_count() const { return sets_.size(); }

  /// Sets whose way storage exists (fills materialize a set on first
  /// touch). An untouched cache reports 0 — the scale memory tests pin
  /// the idle-node footprint on this.
  [[nodiscard]] std::size_t sets_materialized() const {
    std::size_t n = 0;
    for (const Set& s : sets_) {
      n += s ? 1 : 0;
    }
    return n;
  }

  /// Snapshot state: hit/miss/snoop counters and the LRU clock raw, valid
  /// lines (tag, MESI state, LRU stamp, data) as a CRC-32 digest in
  /// (set, way) order.
  void ckpt_save(ckpt::Writer& w) const;

  // BusDevice (snooping side):
  [[nodiscard]] std::string_view device_name() const override {
    return name();
  }
  SnoopResult bus_snoop(const BusRequest& req) override;
  void bus_read_data(const BusRequest& req,
                     std::span<std::byte> out) override;
  void bus_write_data(const BusRequest& req,
                      std::span<const std::byte> in) override;
  void bus_observe(const BusRequest& req, const BusResult& res) override;

  // Bypass contract: when we hold no line for the address, the snoop is a
  // pure miss — and a line can only appear via a bus transaction, which
  // revokes an in-flight bypass on entry.
  [[nodiscard]] bool bus_snoop_stable(const BusRequest& req) const override {
    return find_line(req.addr) == nullptr;
  }
  /// Fused stable+snoop: one line search instead of the default's two
  /// (stability implies a miss, and a miss snoops kIgnore).
  [[nodiscard]] bool bus_fast_probe(const BusRequest& req,
                                    SnoopResult* out) override {
    if (find_line(req.addr) != nullptr) {
      return false;
    }
    *out = SnoopResult{};
    return true;
  }

 private:
  struct Line {
    Addr tag = 0;
    MesiState state = MesiState::kInvalid;
    std::uint64_t lru = 0;
    std::array<std::byte, kLineBytes> data{};
    bool push_pending = false;  // a snoop-push flush has been scheduled
  };
  /// One set's ways, or null until the set's first fill: the directory
  /// holds one pointer per set, 8 bytes where a vector took 24.
  using Set = std::unique_ptr<Line[]>;

  [[nodiscard]] std::size_t set_index(Addr addr) const;
  /// The ways of `set`; empty while the set does not exist.
  [[nodiscard]] std::span<Line> ways(std::size_t set) const {
    Line* s = sets_[set].get();
    return {s, s == nullptr ? 0 : params_.ways};
  }
  /// Allocate a set's ways on first line-creating access. All lines start
  /// invalid, which is indistinguishable from the set never existing.
  void materialize_set(std::size_t set) {
    if (!sets_[set]) {
      sets_[set] = std::make_unique<Line[]>(params_.ways);
    }
  }
  [[nodiscard]] Line* find_line(Addr addr);
  [[nodiscard]] const Line* find_line(Addr addr) const;
  Line& choose_victim(std::size_t set);
  void touch(Line& line) { line.lru = ++lru_clock_; }
  [[nodiscard]] sim::Tick hit_ticks() const {
    return params_.cpu_clock.to_ticks(params_.hit_cycles);
  }

  /// Bring a line in with the given bus op (kRead or kRWITM).
  sim::Co<Line*> fill_line(Addr line_addr, BusOp op);
  sim::Co<void> write_back(Line& line, std::size_t set);
  sim::Co<void> snoop_push(Addr line_addr);

  MemBus& bus_;
  int bus_id_;
  Params params_;
  std::vector<Set> sets_;
  std::uint64_t lru_clock_ = 0;
  sim::Semaphore op_mutex_;  // one processor-side operation at a time
  CacheStats stats_;
};

}  // namespace sv::mem
