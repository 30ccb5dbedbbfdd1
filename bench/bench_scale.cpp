// bench_scale — the 64→1024-node scaling sweep (EXPERIMENTS.md Ext-R).
//
// For each node count the bench builds a full machine on the multi-level
// fat tree, runs a neighbor-exchange msg workload to completion, and
// reports three host-side curves:
//
//   scale_<N>_events_per_sec        simulation throughput during the run
//   scale_<N>_construct_nodes_per_sec
//                                   machine construction rate (catches a
//                                   construction path gone quadratic)
//   scale_<N>_nodes_per_gb          node density per GB of peak RSS
//                                   (catches per-node state regressing
//                                   from kilobytes back to megabytes)
//
// All three are higher-is-better, so the shared floor-style baseline
// check (--check_baseline=bench/baseline_scale.json, default tolerance
// 25%) gates regressions in time *and* space with one mechanism. This is
// a plain main, not a google-benchmark binary: every row is one
// deterministic run and the interesting outputs are the recorded curves,
// not iteration statistics.
//
// Flags: --quick (64/128 only — the CI scale-smoke lane), --json_out=F,
// --check_baseline=F, --tolerance=F.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "msg/endpoint.hpp"
#include "sys/machine.hpp"

namespace sv::bench {
namespace {

/// Peak resident set of this process in bytes (VmHWM). The sweep runs
/// smallest-to-largest, so the high-water mark after a row is dominated
/// by that row's own machine.
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmHWM:") {
      std::size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

sys::Machine::Params scale_machine_params(std::size_t nodes) {
  sys::Machine::Params p;
  p.nodes = nodes;
  p.net = sys::Machine::NetKind::kFatTree;
  p.node.dram_size = 8ull * 1024 * 1024;
  p.node.scoma_size = 1ull * 1024 * 1024;
  p.node.numa_backing_size = 8ull * 1024 * 1024;
  return p;
}

struct Row {
  std::size_t nodes;
  double construct_sec;
  double run_sec;
  std::uint64_t events;
  std::size_t peak_rss;
  bool completed;
};

/// One sweep row: construct, run the neighbor-exchange msg workload
/// (every node sends `count` basic messages to its right neighbor and
/// awaits the same number from its left), tear down, report.
Row run_row(std::size_t nodes, std::uint64_t count) {
  using Clock = std::chrono::steady_clock;
  Row row{};
  row.nodes = nodes;

  const auto t0 = Clock::now();
  sys::Machine machine(scale_machine_params(nodes));
  const auto t1 = Clock::now();
  row.construct_sec = std::chrono::duration<double>(t1 - t0).count();

  const auto map = machine.addr_map();
  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  eps.reserve(nodes);
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
  }
  std::vector<std::uint8_t> done(machine.size(), 0);
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](msg::Endpoint* ep, msg::AddressMap map_, sim::NodeId self,
           std::size_t n_nodes, std::uint64_t count_,
           std::uint8_t* flag) -> sim::Co<void> {
          std::vector<std::byte> payload(32);
          const auto right = static_cast<sim::NodeId>((self + 1) % n_nodes);
          for (std::uint64_t i = 0; i < count_; ++i) {
            co_await ep->send(map_.user0(right), payload);
          }
          for (std::uint64_t i = 0; i < count_; ++i) {
            (void)co_await ep->recv();
          }
          *flag = 1;
        }(eps[n].get(), map, n, nodes, count, &done[n]));
  }

  const auto all_done = [&done] {
    for (const auto f : done) {
      if (f == 0) {
        return false;
      }
    }
    return true;
  };
  const std::uint64_t events_before = machine.kernel().events_executed();
  const auto t2 = Clock::now();
  row.completed = machine.run_epochs_until(
      all_done, machine.now() + 500 * sim::kMillisecond);
  const auto t3 = Clock::now();
  row.run_sec = std::chrono::duration<double>(t3 - t2).count();
  row.events = machine.kernel().events_executed() - events_before;
  row.peak_rss = peak_rss_bytes();
  return row;
}

int run_sweep() {
  const std::vector<std::size_t> counts =
      g_quick ? std::vector<std::size_t>{64, 128}
              : std::vector<std::size_t>{64, 128, 256, 512, 1024};
  std::printf("%8s %12s %12s %14s %12s %14s\n", "nodes", "construct_s",
              "run_s", "events/s", "peak_rss_mb", "nodes_per_gb");
  for (const std::size_t nodes : counts) {
    const Row row = run_row(nodes, /*count=*/4);
    if (!row.completed) {
      std::fprintf(stderr, "bench_scale: %zu-node run TIMED OUT\n", nodes);
      return 1;
    }
    const double events_per_sec =
        static_cast<double>(row.events) / (row.run_sec > 0 ? row.run_sec : 1);
    const double construct_rate =
        static_cast<double>(nodes) /
        (row.construct_sec > 0 ? row.construct_sec : 1e-9);
    const double nodes_per_gb =
        static_cast<double>(nodes) /
        (static_cast<double>(row.peak_rss) / (1024.0 * 1024.0 * 1024.0));
    std::printf("%8zu %12.3f %12.3f %14.3g %12.1f %14.1f\n", row.nodes,
                row.construct_sec, row.run_sec, events_per_sec,
                static_cast<double>(row.peak_rss) / (1024.0 * 1024.0),
                nodes_per_gb);
    const std::string prefix = "scale_" + std::to_string(nodes);
    record_kernel_result(prefix + "_events_per_sec", events_per_sec);
    record_kernel_result(prefix + "_construct_nodes_per_sec", construct_rate);
    record_kernel_result(prefix + "_nodes_per_gb", nodes_per_gb);
  }
  return finalize_kernel_results();
}

}  // namespace
}  // namespace sv::bench

int main(int argc, char** argv) {
  sv::bench::g_kernel_json_out = "BENCH_scale.json";
  sv::bench::parse_quick_flag(argc, argv);
  sv::bench::parse_kernel_json_flags(argc, argv);
  return sv::bench::run_sweep();
}
