// Figure 4 (paper section 6): block-transfer *bandwidth* for approaches
// 1-3, swept over transfer size, measured over back-to-back transfers.
//
// Expected shape (paper): approach 3 has the best bandwidth — the block
// engines read and transmit at almost maximum hardware speed, so large
// transfers approach the network's payload-limited ceiling; approach 2 is
// next (one bus crossing per side, but per-chunk sP occupancy bounds it);
// approach 1 is the worst (double bus crossings plus aP copy overhead).
//
// bytes_per_second is simulated bandwidth (UseManualTime). Host-side cost
// of the sweep is measured by svbench (`svbench/run.py --workload fig4`).
#include "bench/bench_util.hpp"

namespace sv::bench {
namespace {

void BM_Fig4_Bandwidth(benchmark::State& state) {
  const int approach = static_cast<int>(state.range(0));
  const auto len = static_cast<std::uint32_t>(state.range(1));

  sys::Machine machine(xfer_machine_params());
  maybe_enable_tracing(machine);
  xfer::BlockTransferHarness harness(machine);

  sim::Tick total = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const auto res = harness.run(approach, xfer_spec(len, false));
    if (!res.ok) {
      state.SkipWithError("transfer failed verification");
      return;
    }
    report_sim_time(state, res.latency());
    total += res.latency();
    ++runs;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(len) *
                          static_cast<std::int64_t>(runs));
  state.counters["MBps"] =
      static_cast<double>(len) * static_cast<double>(runs) /
      (static_cast<double>(total) * kPsToSec) / 1e6;
  state.counters["approach"] = approach;
  maybe_write_trace(machine);
}

void Fig4Args(benchmark::internal::Benchmark* b) {
  for (int approach = 1; approach <= 3; ++approach) {
    for (std::int64_t len : {1024, 4096, 16384, 65536, 262144}) {
      b->Args({approach, len});
    }
  }
}

BENCHMARK(BM_Fig4_Bandwidth)
    ->Apply(Fig4Args)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sv::bench

int main(int argc, char** argv) {
  sv::bench::parse_trace_flag(argc, argv);
  sv::bench::parse_fault_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
