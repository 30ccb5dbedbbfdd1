#include "sim/event.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ckpt/io.hpp"

namespace sv::sim {

constexpr std::size_t kArity = 4;  // four 16-byte keys: one cache line

std::uint32_t EventQueue::free_slot(std::uint64_t seq) {
  if (seq >= kSeqLimit) {
    throw std::overflow_error("EventQueue: sequence number past 2^44");
  }
  if (free_.empty()) {
    if (slab_.size() == kMaxPending) {
      throw std::overflow_error("EventQueue: more than 2^20 pending events");
    }
    slab_.emplace_back();
    free_.push_back(static_cast<std::uint32_t>(slab_.size() - 1));
  }
  return free_.back();
}

void EventQueue::insert(Key k) {
  if (hole_) {
    hole_ = false;
    sift_down(0, k);
  } else {
    heap_.push_back(k);
    sift_up(heap_.size() - 1, k);
  }
}

void EventQueue::sift_up(std::size_t i, Key k) {
  while (i > 0 && k < heap_[(i - 1) / kArity]) {
    heap_[i] = heap_[(i - 1) / kArity];
    i = (i - 1) / kArity;
  }
  heap_[i] = k;
}

void EventQueue::sift_down(std::size_t i, Key k) {
  const std::size_t n = heap_.size();
  Key* h = heap_.data();
  for (std::size_t c = kArity * i + 1; c < n; c = kArity * i + 1) {
    std::size_t least = c;
    if (c + kArity <= n) {
      // A full family: a two-round tournament the compiler turns into
      // conditional moves, so picking the least child costs no branch.
      const std::size_t a = c + (h[c + 1] < h[c] ? 1 : 0);
      const std::size_t b = c + 2 + (h[c + 3] < h[c + 2] ? 1 : 0);
      least = h[b] < h[a] ? b : a;
    } else {
      for (std::size_t j = c + 1; j < n; ++j) {
        least = h[j] < h[least] ? j : least;
      }
    }
    if (!(h[least] < k)) {
      break;
    }
    h[i] = h[least];
    i = least;
  }
  h[i] = k;
}

Tick EventQueue::next_time() const {
  if (!hole_) {
    return static_cast<Tick>(heap_.front() >> 64);
  }
  // The root is stale, so the earliest event is one of its children.
  Key least = ~Key{0};
  for (std::size_t c = 1; c <= kArity && c < heap_.size(); ++c) {
    least = std::min(least, heap_[c]);
  }
  return static_cast<Tick>(least >> 64);
}

EventQueue::Popped EventQueue::try_pop(Tick bound) {
  // Every path returns `p`, so it is built in the caller's storage (NRVO)
  // and the callback moves once on its way out: slab slot to caller.
  Popped p{kTickInvalid, 0, {}};
  if (hole_) {
    hole_ = false;
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      sift_down(0, last);
    }
  }
  if (heap_.empty() || static_cast<Tick>(heap_.front() >> 64) > bound) {
    return p;
  }
  const Key k = heap_.front();
  const auto low = static_cast<std::uint64_t>(k);
  const auto slot = static_cast<std::uint32_t>(low & (kMaxPending - 1));
  p.when = static_cast<Tick>(k >> 64);
  p.seq = low >> kSlotBits;
  p.fn = std::move(slab_[slot]);
  free_.push_back(slot);
  hole_ = true;
  floor_ = p.when;
  return p;
}

void EventQueue::ckpt_save(ckpt::Writer& w) const {
  w.tick(floor_);
  w.u64(next_seq_);
  // Pending (when, seq) keys in dispatch order: the heap layout and the
  // slot bits are internal, so keys are stripped of slots and sorted.
  std::vector<Key> keys(heap_.begin() + (hole_ ? 1 : 0), heap_.end());
  for (Key& k : keys) {
    k &= ~Key{kMaxPending - 1};
  }
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const Key k : keys) {
    w.tick(static_cast<Tick>(k >> 64));
    w.u64(static_cast<std::uint64_t>(k) >> kSlotBits);
  }
}

}  // namespace sv::sim
