// Shared plumbing of the host-performance benches (bench_kernel,
// bench_parallel, bench_scale): their flags and the flat JSON results
// they record and check against a baseline. Simulated results are
// svsim's and svexp's (EXPERIMENTS.md), not these binaries'.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sys/machine.hpp"

namespace sv::bench {

/// Worker threads from bench_parallel's --threads=N; 0 (the default)
/// keeps the classic sequential machine.
inline unsigned g_threads = 0;  // NOLINT(misc-definitions-in-headers)

/// --quick from argv: bench_scale then runs only the rows the CI
/// scale-smoke job checks.
inline bool g_quick = false;  // NOLINT(misc-definitions-in-headers)

/// Strip a leading --quick from argv. Call before benchmark::Initialize,
/// which rejects flags it does not know.
inline void parse_quick_flag(int& argc, char** argv) {
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      g_quick = true;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
}

/// Remove every argv entry that starts with `flag` (e.g. "--threads="),
/// passing the text after it to `take`. Call before
/// benchmark::Initialize, which rejects flags it does not know.
template <typename Take>
inline void strip_flag(int& argc, char** argv, std::string_view flag,
                       Take take) {
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, flag.size()) == flag) {
      take(std::string(arg.substr(flag.size())));
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
}

/// `value`, given as `flag`=value, read by sim::Config's strict getters
/// and checked against [lo, hi]. A malformed or out-of-range value ends
/// the process: one line naming the flag on stderr, exit 2.
template <typename T>
T flag_value(const std::string& flag, const std::string& value, T lo, T hi) {
  sim::Config cfg;
  cfg.set(flag, value);
  try {
    if constexpr (std::is_floating_point_v<T>) {
      const double v = cfg.get_double(flag, 0.0);
      if (v >= lo && v <= hi) {
        return v;
      }
    } else {
      const std::uint64_t v = cfg.get_u64(flag, 0);
      if (v >= lo && v <= hi) {
        return static_cast<T>(v);
      }
    }
    std::ostringstream os;
    os << flag << ": expected " << lo << ".." << hi << ", got '" << value
       << "'";
    std::fprintf(stderr, "%s\n", os.str().c_str());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  std::exit(2);
}

/// Strip --threads=N (0..64, as svsim's threads=) from argv.
inline void parse_threads_flag(int& argc, char** argv) {
  strip_flag(argc, argv, "--threads=", [](const std::string& v) {
    g_threads = flag_value<unsigned>("--threads", v, 0, 64);
  });
}

/// Machine for partition-safe multi-node benches: ideal network (the only
/// partitionable fabric) with `threads` worker domains — pass
/// bench::g_threads to honor the --threads flag. The link latency is the
/// epoch length (lookahead) in partitioned mode; a generous 4 us keeps the
/// per-epoch barrier cost amortized so the bench measures simulation work,
/// not synchronization. Sequential rows use the same latency, so the
/// self-relative comparison is apples-to-apples.
inline sys::Machine::Params parallel_machine_params(std::size_t nodes,
                                                    unsigned threads) {
  sys::Machine::Params p;
  p.nodes = nodes;
  p.node.dram_size = 16ull * 1024 * 1024;
  p.node.scoma_size = 2ull * 1024 * 1024;
  p.node.numa_backing_size = 16ull * 1024 * 1024;
  p.net = sys::Machine::NetKind::kIdeal;
  p.ideal_latency = 16 * sim::kMicrosecond;
  p.threads = threads;
  return p;
}

// ---------------------------------------------------------------------------
// Kernel-bench result tracking: a flat {case: events_per_sec} JSON written
// after the run (BENCH_kernel.json by default) so the hot-path perf
// trajectory is recorded across PRs, plus an optional baseline check that
// turns a silent regression into a CI failure.
// ---------------------------------------------------------------------------

struct KernelResult {
  std::string name;
  double events_per_sec = 0.0;
};

inline std::vector<KernelResult>& kernel_results() {
  static std::vector<KernelResult> results;
  return results;
}

inline std::string g_kernel_json_out =  // NOLINT(misc-definitions-in-headers)
    "BENCH_kernel.json";
inline std::string g_kernel_baseline;   // NOLINT(misc-definitions-in-headers)
inline double g_kernel_tolerance = 0.25;  // NOLINT(misc-definitions-in-headers)

/// Record one kernel-bench case's measured host throughput. The framework
/// may run a case more than once (iteration-count estimation); the last —
/// longest, most reliable — run wins.
inline void record_kernel_result(std::string name, double events_per_sec) {
  for (auto& r : kernel_results()) {
    if (r.name == name) {
      r.events_per_sec = events_per_sec;
      return;
    }
  }
  kernel_results().push_back({std::move(name), events_per_sec});
}

/// Strip --json_out=FILE, --check_baseline=FILE and --tolerance=F (F in
/// [0,1]) from argv. Call before benchmark::Initialize.
inline void parse_kernel_json_flags(int& argc, char** argv) {
  strip_flag(argc, argv, "--json_out=",
             [](const std::string& v) { g_kernel_json_out = v; });
  strip_flag(argc, argv, "--check_baseline=",
             [](const std::string& v) { g_kernel_baseline = v; });
  strip_flag(argc, argv, "--tolerance=", [](const std::string& v) {
    g_kernel_tolerance = flag_value("--tolerance", v, 0.0, 1.0);
  });
}

/// Parse the flat {"case": number, ...} JSON this header itself writes.
/// Deliberately minimal: it only needs to round-trip our own output.
inline std::vector<KernelResult> read_kernel_json(const std::string& path) {
  std::vector<KernelResult> out;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) {
      break;
    }
    const std::string key = text.substr(pos + 1, end - pos - 1);
    const std::size_t colon = text.find(':', end);
    if (colon == std::string::npos) {
      break;
    }
    out.push_back({key, std::strtod(text.c_str() + colon + 1, nullptr)});
    pos = text.find(',', colon);
    if (pos == std::string::npos) {
      break;
    }
  }
  return out;
}

/// Write BENCH_kernel.json and, when --check_baseline was given, compare
/// against it. Returns a process exit code (non-zero on regression).
inline int finalize_kernel_results() {
  const auto& results = kernel_results();
  if (!g_kernel_json_out.empty()) {
    std::ofstream out(g_kernel_json_out);
    out << "{\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << "  \"" << results[i].name << "\": " << std::fixed
          << results[i].events_per_sec << (i + 1 < results.size() ? "," : "")
          << "\n";
    }
    out << "}\n";
  }
  if (g_kernel_baseline.empty()) {
    return 0;
  }
  const auto baseline = read_kernel_json(g_kernel_baseline);
  if (baseline.empty()) {
    std::fprintf(stderr, "bench_kernel: baseline %s missing or empty\n",
                 g_kernel_baseline.c_str());
    return 1;
  }
  int rc = 0;
  for (const auto& b : baseline) {
    for (const auto& r : results) {
      if (r.name != b.name) {
        continue;
      }
      const double floor = b.events_per_sec * (1.0 - g_kernel_tolerance);
      if (r.events_per_sec < floor) {
        std::fprintf(stderr,
                     "bench_kernel: REGRESSION %s: %.3g events/s < floor "
                     "%.3g (baseline %.3g, tolerance %g)\n",
                     r.name.c_str(), r.events_per_sec, floor,
                     b.events_per_sec, g_kernel_tolerance);
        rc = 1;
      } else {
        std::fprintf(stderr, "bench_kernel: ok %s: %.3g events/s (>= %.3g)\n",
                     r.name.c_str(), r.events_per_sec, floor);
      }
    }
  }
  return rc;
}

}  // namespace sv::bench
