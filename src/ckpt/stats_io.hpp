// Canonical encodings for the stats primitives (sim/stats.hpp) and RNG
// streams, shared by every component's ckpt_save(). Free functions rather
// than methods so the stats classes stay serialization-agnostic.
#pragma once

#include "ckpt/io.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace sv::ckpt {

inline void save(Writer& w, const sim::Counter& c) { w.u64(c.value()); }

inline void save(Writer& w, const sim::Histogram& h) {
  w.u64(h.count());
  w.f64(h.mean());
  w.u64(h.count() ? h.min() : 0);
  w.u64(h.count() ? h.max() : 0);
  w.u64(h.buckets().size());
  for (const std::uint64_t b : h.buckets()) {
    w.u64(b);
  }
}

inline void save(Writer& w, const sim::BusyTracker& b) { w.u64(b.busy()); }

/// Raw xoshiro words: the strongest possible cursor — a single extra or
/// missing draw anywhere in the replay flips all four.
inline void save(Writer& w, const sim::Rng& r) {
  const sim::Rng::State st = r.state();
  for (const std::uint64_t s : st.s) {
    w.u64(s);
  }
}

}  // namespace sv::ckpt
