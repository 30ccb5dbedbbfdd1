// Event queue for the discrete-event kernel: callables scheduled at an
// absolute Tick, ties broken by sequence number, so every run is fully
// deterministic for a given program.
//
// One 4-ary min-heap of 16-byte keys (DESIGN.md §11.2). A key packs the
// tick, the sequence number and the slab slot holding the callback, so
// comparing keys compares (tick, seq) and sifting moves 16 bytes, never a
// 64-byte callable. Most workloads keep a handful of events pending per
// domain, so the heap usually sits in one or two cache lines.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_func.hpp"
#include "sim/types.hpp"

namespace sv::ckpt {
class Writer;
}  // namespace sv::ckpt

namespace sv::sim {

class EventQueue {
 public:
  using Callback = InlineFunc;

  /// Key packing limits: sequence numbers below 2^44, at most 2^20 events
  /// pending. push() throws std::overflow_error past either, in any build.
  static constexpr unsigned kSlotBits = 20;
  static constexpr std::uint64_t kMaxPending = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kSlotBits);

  /// Schedule `fn` to run at absolute time `when`. `when` must be >= the
  /// current floor (the last popped/advanced time) — the kernel's
  /// no-events-in-the-past rule.
  void push(Tick when, Callback fn);

  /// Reserve `n` consecutive sequence numbers and return the first. The
  /// fast-path layer (DESIGN.md §12) reserves an operation's tie-break
  /// keys up front — identically in fast and slow mode — so that events
  /// later pushed with push_at_seq() occupy the same position in dispatch
  /// order regardless of when the push itself happens. Reserved numbers
  /// that end up unused are simply holes; only relative order matters.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  /// Schedule `fn` at `when` under a previously reserved sequence number
  /// instead of a fresh one. The (when, seq) pair must be unique among
  /// live events (a dead — revoked — event may share it; see MemBus).
  void push_at_seq(Tick when, std::uint64_t seq, Callback fn);

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const { return heap_.size() - hole_; }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Tick next_time() const;

  /// Remove and return the earliest event. Precondition: !empty(). seq is
  /// the tie-break key the fast-path revocation protocol compares against.
  struct Popped {
    Tick when;
    std::uint64_t seq;
    Callback fn;
  };
  Popped pop() { return try_pop(kTickInvalid); }

  /// pop(), but only if the earliest event is at or before `bound`;
  /// otherwise returns {kTickInvalid, empty} and leaves the queue intact.
  Popped try_pop(Tick bound);

  /// Raise the floor ("no event can be scheduled before this") when the
  /// kernel's time advances, idle jumps included. Never un-advances.
  void advance(Tick now) {
    if (now > floor_) {
      floor_ = now;
    }
  }

  /// Total number of sequence numbers ever issued: events scheduled plus
  /// keys reserved via reserve_seqs(). Unlike the executed-event count,
  /// this is identical between fast-path and slow-path runs (reservations
  /// happen at the same program points in both), which is why the stats
  /// dump reports it (DESIGN.md §12).
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_; }

  /// Append the queue's snapshot state to `w`: floor, next sequence number
  /// (reserved-but-unused keys included) and every pending (when, seq) in
  /// dispatch order. Callbacks are closures and are not serialized: restore
  /// replays the run, then byte-compares this chunk (DESIGN.md §14).
  void ckpt_save(ckpt::Writer& w) const;

 private:
  /// when << 64 | seq << kSlotBits | slab slot, compared as one 128-bit
  /// integer: (when, seq) order without a branch per field. Equal (when,
  /// seq) pairs occur only while a revoked MemBus::fast_complete is still
  /// queued beside the live event that took its key; the dead one returns
  /// at its generation check, so the order the slot bits give the pair
  /// changes nothing.
  using Key = unsigned __int128;

  void sift_up(std::size_t i, Key k);
  void sift_down(std::size_t i, Key k);

  // heap_[0] is stale while hole_ is set: try_pop() leaves the root empty,
  // and the next push() sifts down from it (one sift for a chained event's
  // pop-then-push) or the next pop refills it from the back.
  std::vector<Key> heap_;
  bool hole_ = false;
  // Callbacks by slot, recycled through free_: no steady-state allocation.
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> free_;
  Tick floor_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sv::sim
