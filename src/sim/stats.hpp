// Statistics collection: counters, scalar samples, log2 histograms, and a
// registry so any component can publish metrics that svsim dumps (stats=1)
// and svbench digests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace sv::sim {

/// Monotonically increasing event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Accumulates samples: count / sum / min / max / mean.
class Accumulator {
 public:
  void sample(double v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  void reset() { *this = Accumulator{}; }

  /// Fold another accumulator into this one. Merging is order-sensitive for
  /// the double sum, so callers that need reproducible aggregates must
  /// merge shards in a fixed order (e.g. node id order).
  void merge(const Accumulator& o) {
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two bucketed histogram for latencies / sizes.
class Histogram {
 public:
  void sample(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return acc_.count(); }
  [[nodiscard]] double mean() const { return acc_.mean(); }
  [[nodiscard]] std::uint64_t min() const {
    return static_cast<std::uint64_t>(acc_.min());
  }
  [[nodiscard]] std::uint64_t max() const {
    return static_cast<std::uint64_t>(acc_.max());
  }

  /// Bucket i counts samples in [2^(i-1), 2^i), bucket 0 counts v==0..1.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// Approximate p-th percentile (0..100) from the bucket boundaries.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  void reset() {
    acc_.reset();
    buckets_.clear();
  }

  /// Fold another histogram into this one (bucket-wise). Same ordering
  /// caveat as Accumulator::merge.
  void merge(const Histogram& o) {
    acc_.merge(o.acc_);
    if (o.buckets_.size() > buckets_.size()) {
      buckets_.resize(o.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < o.buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
  }

 private:
  Accumulator acc_;
  std::vector<std::uint64_t> buckets_;
};

/// Tracks busy time of a unit to report occupancy (fraction of wall time).
class BusyTracker {
 public:
  void add_busy(Tick duration) { busy_ += duration; }
  [[nodiscard]] Tick busy() const { return busy_; }
  [[nodiscard]] double occupancy(Tick elapsed) const {
    return elapsed == 0
               ? 0.0
               : static_cast<double>(busy_) / static_cast<double>(elapsed);
  }
  void reset() { busy_ = 0; }

 private:
  Tick busy_ = 0;
};

/// A named bag of metrics; components register values by dotted path.
/// Dumps list them in name order.
class StatRegistry {
 public:
  void set(std::string name, double value) {
    values_.insert_or_assign(std::move(name), value);
  }

  [[nodiscard]] double get(const std::string& name) const {
    auto it = values_.find(name);
    return it != values_.end() ? it->second : 0.0;
  }
  [[nodiscard]] bool contains(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] const std::map<std::string, double>& all() const {
    return values_;
  }

  void dump(std::ostream& os) const;
  /// Dump as a flat JSON object {"dotted.name": value, ...}.
  void dump_json(std::ostream& os) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace sv::sim
