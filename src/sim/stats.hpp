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

/// Power-of-two bucketed histogram for latencies / sizes, with the
/// count, mean, min and max of its samples.
class Histogram {
 public:
  void sample(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] std::uint64_t min() const {
    return count_ ? static_cast<std::uint64_t>(min_) : 0;
  }
  [[nodiscard]] std::uint64_t max() const {
    return count_ ? static_cast<std::uint64_t>(max_) : 0;
  }

  /// Bucket i counts samples in [2^(i-1), 2^i), bucket 0 counts v==0..1.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// Approximate p-th percentile (0..100) from the bucket boundaries.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  /// Fold another histogram into this one (bucket-wise). Merging is
  /// order-sensitive for the double sum, so callers that need reproducible
  /// aggregates must merge shards in a fixed order (e.g. node id order).
  void merge(const Histogram& o) {
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    if (o.buckets_.size() > buckets_.size()) {
      buckets_.resize(o.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < o.buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
  }

 private:
  // Samples are summed and compared as doubles.
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
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
