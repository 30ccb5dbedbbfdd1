// Split-transaction snooping memory bus (modelled after the PowerPC 60x bus
// the paper's nodes use).
//
// A transaction has an address tenure (arbitration + address/command cycle +
// snoop window) followed, unless retried, by a data tenure (64-bit data bus,
// one 8-byte beat per bus cycle, plus the responder's access latency). The
// address and data buses are separate resources, so the address tenure of a
// following transaction overlaps the data tenure of the current one, exactly
// like pipelined 60x operation.
//
// Every attached device snoops every address tenure. Snoop results implement
// the 60x shared / modified-intervention / ARTRY(retry) semantics that the
// NIU's S-COMA and NUMA support relies on: the aBIU can hold off the aP by
// retrying its reads until firmware has fetched remote data.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "mem/backing_store.hpp"
#include "sim/coro.hpp"
#include "sim/fastpath.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"

namespace sv::mem {

/// Cache-line size of the modelled 604e system.
inline constexpr std::size_t kLineBytes = 32;
/// Width of the data bus in bytes (64-bit 60x data bus).
inline constexpr std::size_t kBeatBytes = 8;
/// The 66.67 MHz 60x bus clock. The NIU's CTRL, BIUs, TxU/RxU and SRAM
/// banks run at it too, and so does the sP's own 60x bus.
inline constexpr sim::Clock kBusClock{15000};

[[nodiscard]] constexpr Addr line_base(Addr a) {
  return a & ~static_cast<Addr>(kLineBytes - 1);
}

enum class BusOp : std::uint8_t {
  kRead,         // cacheable line read (burst)
  kRWITM,        // read with intent to modify (burst, invalidates others)
  kWriteLine,    // write with flush (full-line burst writeback)
  kReadSingle,   // uncached read, <= 8 bytes
  kWriteSingle,  // uncached write, <= 8 bytes
  kKill,         // address-only invalidate (DKill)
  kFlush,        // force writeback + invalidate of a line
};

[[nodiscard]] std::string_view to_string(BusOp op);

[[nodiscard]] constexpr bool op_reads_data(BusOp op) {
  return op == BusOp::kRead || op == BusOp::kRWITM ||
         op == BusOp::kReadSingle;
}

[[nodiscard]] constexpr bool op_writes_data(BusOp op) {
  return op == BusOp::kWriteLine || op == BusOp::kWriteSingle;
}

[[nodiscard]] constexpr bool op_address_only(BusOp op) {
  return op == BusOp::kKill;
}

enum class SnoopAction : std::uint8_t {
  kIgnore,    // address not mine, no copy held
  kAccept,    // I am the addressed responder (memory controller, NIU window)
  kShared,    // I hold a clean copy (drives SHD)
  kModified,  // I hold a dirty copy: intervention, I supply/absorb the data
  kRetry,     // ARTRY: abort the transaction, requester must retry
};

struct SnoopResult {
  SnoopAction action = SnoopAction::kIgnore;
  /// Responder-side access latency in bus cycles before the first data beat.
  sim::Cycles latency = 0;
};

struct BusRequest {
  BusOp op = BusOp::kRead;
  Addr addr = 0;
  std::uint32_t size = 0;
  /// Source buffer for write ops; must stay valid until completion.
  const std::byte* wdata = nullptr;
  /// Destination buffer for read ops; must stay valid until completion.
  std::byte* rdata = nullptr;
  /// Device id of the requester (set by MemBus::transact_retry).
  int requester = -1;
  /// True when the transaction was initiated by the application processor
  /// (the aBIU's S-COMA/NUMA checks apply only to aP-initiated traffic).
  bool from_ap = false;
  /// Requester-side lead-in (issue/decode work) folded into the
  /// transaction, in ticks. The slow path replays it as a reserved-key
  /// delay before arbitration; the fast path folds lead + address tenure +
  /// data tenure into its single completion event (DESIGN.md §12). Applies
  /// to the first issue only — transact_retry clears it before re-issuing.
  sim::Tick lead_ticks = 0;
};

struct BusResult {
  bool retried = false;
  bool shared = false;        // some snooper holds a copy
  bool intervened = false;    // data supplied by a modified snooper
  bool no_responder = false;  // nobody claimed the address
  int responder = -1;
};

class BusDevice {
 public:
  virtual ~BusDevice() = default;

  [[nodiscard]] virtual std::string_view device_name() const = 0;

  /// Address-tenure snoop. Called for every transaction except the device's
  /// own. Must not suspend: snooping is combinational.
  virtual SnoopResult bus_snoop(const BusRequest& req) = 0;

  /// Data-tenure callbacks, invoked on the responder at the end of the data
  /// tenure. Default implementations abort (a device that never responds
  /// with kAccept/kModified need not override them).
  virtual void bus_read_data(const BusRequest& req, std::span<std::byte> out);
  virtual void bus_write_data(const BusRequest& req,
                              std::span<const std::byte> in);

  /// Called on every device except the requester after a transaction
  /// completes without retry (after the data tenure, if any). Used for
  /// invalidations and the BIUs' bus watching.
  virtual void bus_observe(const BusRequest& req, const BusResult& res) {
    (void)req;
    (void)res;
  }

  // --- Bypass contract (DESIGN.md §12) ------------------------------------
  // The predicate must be pure. Returning false is always safe (the
  // transaction takes the slow path); returning true is a promise.

  /// True when bus_snoop(req) is a pure function of static configuration:
  /// it returns kIgnore or kAccept (never Shared/Modified/Retry), has no
  /// side effects, and its answer cannot change except through a code path
  /// that re-enters MemBus::transact_retry (which revokes an in-flight
  /// bypass).
  [[nodiscard]] virtual bool bus_snoop_stable(const BusRequest& req) const {
    (void)req;
    return false;
  }

  /// Combined eligibility probe: exactly bus_snoop_stable(req) followed by
  /// bus_snoop(req), fused so devices whose stability check and snoop share
  /// one lookup (the caches' line search) pay it once. Returns false when
  /// unstable; otherwise writes the snoop result and returns true.
  [[nodiscard]] virtual bool bus_fast_probe(const BusRequest& req,
                                            SnoopResult* out) {
    if (!bus_snoop_stable(req)) {
      return false;
    }
    *out = bus_snoop(req);
    return true;
  }
};

struct BusStats {
  sim::Counter transactions;
  sim::Counter retries;
  sim::Counter interventions;
  sim::Counter address_only;
  sim::Counter data_beats;
  sim::BusyTracker data_busy;
  sim::Histogram latency_ps;  // request issue to completion
};

class MemBus : public sim::SimObject {
 public:
  static constexpr sim::Cycles kAddressCycles = 2;  // tenure + snoop window
  static constexpr sim::Cycles kRetryBackoff = 4;  // before re-arbitrating

  struct Params {
    /// DMI-style bypass, the simulator's only fast path: contention-free
    /// transactions complete in a single kernel event at the analytically
    /// computed tick (DESIGN.md §12). Meant to be bit-identical either
    /// way; §12.4 lists the known gaps. Defaults off under
    /// SV_NO_FASTPATH=1.
    bool fastpath = sim::fastpath_default();
  };

  MemBus(sim::Kernel& kernel, std::string name, Params params);

  /// Attach a device; returns its device id (used as requester id).
  int attach(BusDevice* dev);

  [[nodiscard]] const Params& params() const { return params_; }

  /// Run one bus transaction, re-issuing it kRetryBackoff cycles after
  /// each ARTRY until it completes. The request's requester field is
  /// filled in from `requester_id`. `max_retries` == 0 means unbounded
  /// (hardware semantics); with a bound, gives up and returns
  /// retried=true after that many attempts, so 1 runs a single attempt.
  /// Every attempt and backoff runs in this one coroutine frame.
  sim::Co<BusResult> transact_retry(int requester_id, BusRequest req,
                                    unsigned max_retries = 0);

  /// Transactions completed via the single-event bypass. Deliberately an
  /// accessor, not a StatRegistry entry: the count is zero in slow mode by
  /// construction, and the registry dump must stay byte-identical across
  /// modes.
  [[nodiscard]] std::uint64_t fast_path_hits() const { return fast_hits_; }

  [[nodiscard]] const BusStats& stats() const { return stats_; }
  BusStats& stats() { return stats_; }

  /// Snapshot state: transaction/retry/beat counters, occupancy, the
  /// latency histogram, and the bypass hit count. In-flight fast records
  /// are transient (at an epoch boundary no event is executing, but a
  /// bypassed transaction's completion event may be pending — its
  /// (when, seq) key is already captured by the kernel's event chunk).
  void ckpt_save(ckpt::Writer& w) const;

 private:
  /// Where a bypassed transaction's coroutine continues (DESIGN.md §12.2).
  enum class Resume : std::uint8_t {
    kIssue,      // not bypassed: the whole slow path, lead-in first
    kArbitrate,  // revoked in the lead-in: from arbitration, at the lead key
    kSnoop,      // revoked in the address tenure: at its end, snoop live
    kDone,       // the bypass completed the transaction
  };

  /// In-flight bypassed transaction. At most one can exist per bus: the
  /// bypass requires both bus resources free and seizes the address bus,
  /// and any later attempt's entry revokes it before arbitrating.
  struct FastRecord {
    bool live = false;
    bool committed = false;  // address tenure passed: addr released, data held
    /// A revocation wake is scheduled but has not yet resumed the waiter.
    /// The record (waiter slot, resume) is still owned by the revoked
    /// transaction, so no new bypass may engage — the lead-window arm
    /// releases the address bus, which would otherwise look engageable
    /// while a transaction is still in flight.
    bool wake_pending = false;
    std::uint64_t gen = 0;   // liveness token for the completion event
    Resume resume = Resume::kDone;
    std::uint64_t s0 = 0;    // first of the three reserved phase seqs
    bool has_lead = false;   // request carried a lead-in (lead key = s0 - 1)
    sim::Tick start = 0;     // issue time: end of the lead-in, latency basis
    sim::Tick t2 = 0;        // end of address tenure / snoop window
    sim::Tick t3 = 0;        // end of data tenure (completion)
    sim::Cycles beats = 0;
    int accept_device = -1;
    BusRequest req;
    BusResult res;
    std::coroutine_handle<> waiter;
  };

  struct FastAwait {
    MemBus& bus;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      bus.fast_rec_.waiter = h;
    }
    Resume await_resume() const noexcept { return bus.fast_rec_.resume; }
  };

  /// Check single-transaction bypass eligibility and, on success, engage:
  /// seize the address bus, fill fast_rec_ and schedule the completion
  /// event at (t3, s0+2).
  bool plan_fast(const BusRequest& req, std::uint64_t s0, sim::Tick start);
  void fast_complete(std::uint64_t gen);
  void fast_wake();
  /// Fold the in-flight bypass, if any, back onto the slow schedule at the
  /// phase the caller observes it (DESIGN.md §12.2). Called on every
  /// attempt's entry; a no-op when nothing is in flight.
  void revoke_fast();

  [[nodiscard]] trace::Tracer* trace_target();

  Params params_;
  std::vector<BusDevice*> devices_;
  sim::Semaphore addr_bus_;
  sim::Semaphore data_bus_;
  BusStats stats_;
  std::uint64_t fast_hits_ = 0;
  FastRecord fast_rec_;
  trace::TrackId trace_track_ = trace::kNoTrack;
};

}  // namespace sv::mem
