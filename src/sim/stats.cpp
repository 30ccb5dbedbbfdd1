#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace sv::sim {

void Histogram::sample(std::uint64_t v) {
  const auto d = static_cast<double>(v);
  ++count_;
  sum_ += d;
  min_ = std::min(min_, d);
  max_ = std::max(max_, d);
  const std::size_t bucket =
      v <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(v - 1));
  if (bucket >= buckets_.size()) {
    buckets_.resize(bucket + 1, 0);
  }
  ++buckets_[bucket];
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0.0) {
    return min();
  }
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Bucket i spans [2^(i-1), 2^i); clamp its upper bound to the
      // observed sample range so exact values round-trip.
      const std::uint64_t bound = i == 0 ? 1 : (std::uint64_t{1} << i);
      return std::clamp(bound, min(), max());
    }
  }
  return max();
}

void StatRegistry::dump(std::ostream& os) const {
  for (const auto& [name, value] : values_) {
    os << name << " = " << value << '\n';
  }
}

void StatRegistry::dump_json(std::ostream& os) const {
  os << "{\n";
  bool first = true;
  for (const auto& [name, value] : values_) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << "  \"";
    for (const char c : name) {
      if (c == '"' || c == '\\') {
        os << '\\';
      }
      os << c;
    }
    os << "\": ";
    if (std::isfinite(value)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      os << buf;
    } else {
      os << "null";  // JSON has no inf/nan literals
    }
  }
  os << "\n}\n";
}

}  // namespace sv::sim
