// svtrace: offline analyzer for the traces svsim writes (trace=FILE).
//
// Reads a Chrome trace-event JSON file (as written by
// trace::ChromeWriter) and prints the summaries that are awkward to
// eyeball in the Perfetto UI: per-unit occupancy, the longest spans, and
// per-message latency broken down by where the time went (NIU queues, bus,
// wire).
//
// Usage:
//   svtrace <trace.json> [top=N]
//
// A bad or unknown key prints one line naming it and exits 2, as svsim's
// do; an unreadable or malformed trace exits 1.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sys/workload.hpp"
#include "trace/analysis.hpp"

using namespace sv;

namespace {

double us(std::uint64_t ps) { return static_cast<double>(ps) / 1e6; }

/// svtrace's own keys.
const sys::KeyTable& trace_keys() {
  static const sys::KeyTable keys = {
      sys::uint_key("top", 10, 0, sys::kNoLimit, "longest spans to list"),
  };
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: svtrace <trace.json> [top=N]\n");
    return 2;
  }
  const std::string path = argv[1];
  std::uint64_t top_n = 0;
  try {
    const auto cfg = sim::Config::from_args({argv + 2, argv + argc});
    sys::check_keys(cfg, {&trace_keys()});
    top_n = sys::Args(cfg, trace_keys()).u64("top");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svtrace: %s\n", e.what());
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "svtrace: cannot open %s\n", path.c_str());
    return 1;
  }
  trace::TraceAnalysis a;
  try {
    a = trace::TraceAnalysis::parse(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svtrace: %s: %s\n", path.c_str(), e.what());
    return 1;
  }

  std::printf("%s: %.3f us of simulated time, %zu tracks, %zu spans, "
              "%llu counter samples",
              path.c_str(), us(a.duration_ps()), a.tracks.size(),
              a.spans.size(),
              static_cast<unsigned long long>(a.counter_samples));
  if (a.dropped > 0) {
    std::printf(" (%llu events dropped from the ring)",
                static_cast<unsigned long long>(a.dropped));
  }
  std::printf("\n");

  // Per-unit occupancy, busiest first. Counter tracks have no spans and
  // are skipped.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < a.tracks.size(); ++i) {
    if (a.tracks[i].spans > 0) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x,
                                                   std::size_t y) {
    return a.tracks[x].busy_ps > a.tracks[y].busy_ps;
  });
  std::printf("\nper-unit occupancy\n");
  std::printf("  %-24s %8s %12s %10s\n", "unit", "occ", "busy us", "spans");
  for (const std::size_t i : order) {
    const auto& t = a.tracks[i];
    std::printf("  %-24s %7.2f%% %12.3f %10llu\n", t.full_name().c_str(),
                100.0 * a.occupancy(i), us(t.busy_ps),
                static_cast<unsigned long long>(t.spans));
  }

  const auto longest = a.longest(top_n);
  if (!longest.empty()) {
    std::printf("\ntop %zu longest spans\n", longest.size());
    for (const auto& s : longest) {
      std::printf("  %10.3f us  %-24s %-20s @ %.3f us", us(s.dur_ps),
                  a.tracks[s.track].full_name().c_str(), s.name.c_str(),
                  us(s.ts_ps));
      if (s.flow != 0) {
        std::printf("  flow %llu", static_cast<unsigned long long>(s.flow));
      }
      std::printf("\n");
    }
  }

  const auto flows = a.flows();
  if (!flows.empty()) {
    std::uint64_t lat_min = ~std::uint64_t{0};
    std::uint64_t lat_max = 0;
    double lat_sum = 0.0;
    std::map<std::string, double> cat_sum;
    for (const auto& f : flows) {
      lat_min = std::min(lat_min, f.latency_ps());
      lat_max = std::max(lat_max, f.latency_ps());
      lat_sum += static_cast<double>(f.latency_ps());
      for (const auto& [cat, ps] : f.by_category_ps) {
        cat_sum[cat] += static_cast<double>(ps);
      }
    }
    const double n = static_cast<double>(flows.size());
    std::printf("\nflows: %zu messages, latency min/mean/max = "
                "%.3f / %.3f / %.3f us\n",
                flows.size(), us(lat_min), lat_sum / n / 1e6, us(lat_max));
    std::printf("  mean per-message span time by category:\n");
    for (const auto& [cat, sum] : cat_sum) {
      std::printf("    %-10s %10.3f us\n", cat.c_str(), sum / n / 1e6);
    }
  }
  return 0;
}
