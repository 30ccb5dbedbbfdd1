// Ext-M: self-relative speedup of the partitioned machine
// (sim::ParallelKernel) over the sequential kernel.
//
// The number reported here is *wall-clock* time, not simulated time:
// the simulated result is bit-identical at every thread count (the
// ParallelKernel contract, enforced by parallel_equivalence_test), so the
// only interesting question is how much faster the host finishes the same
// simulation. Each row also exports the simulated duration and the total
// event count; the latter must be identical down the thread column — a
// cheap standing equivalence check inside the bench itself.
//
// Workload: compute + communicate in bounded rounds (the Ext-M shape).
// Every round each node sends one message to each other node, runs a local
// compute phase (cached stores walking its own DRAM), then drains its
// receive queue. The receive bound keeps unreliable rx queues from
// overflowing at any node count; the compute phase gives every domain
// purely node-local event traffic between communication bursts, the mix a
// real SMP application presents.
#include <chrono>
#include <cstdio>
#include <map>

#include "bench/bench_util.hpp"
#include "msg/endpoint.hpp"

namespace sv::bench {
namespace {

constexpr std::uint64_t kBytes = 64;
// Uncached stores per node per round, walking a 32 KiB window of the
// node's own DRAM — the "compute" half of the round, pure domain-local
// event traffic between communication bursts.
constexpr int kComputeOps = 8;
constexpr mem::Addr kComputeBase = 0x0010'0000;

struct RunOut {
  double wall_sec = 0.0;
  sim::Tick sim_ps = 0;
  std::uint64_t events = 0;
};

RunOut run_all_to_all(std::size_t nodes, unsigned threads, int rounds) {
  sys::Machine machine(parallel_machine_params(nodes, threads));
  const auto map = machine.addr_map();

  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
  }
  std::vector<std::uint8_t> done(machine.size(), 0);
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](cpu::Processor* proc, msg::Endpoint* ep, msg::AddressMap map_,
           sim::NodeId self, std::size_t nodes_, int rounds_,
           std::uint8_t* flag) -> sim::Co<void> {
          std::vector<std::byte> payload(kBytes);
          for (int r = 0; r < rounds_; ++r) {
            for (sim::NodeId d = 0; d < nodes_; ++d) {
              if (d != self) {
                co_await ep->send(map_.user0(d), payload);
              }
            }
            for (int i = 0; i < kComputeOps; ++i) {
              const auto slot =
                  static_cast<mem::Addr>((r * kComputeOps + i) % 512);
              co_await proc->store_scalar<std::uint64_t>(
                  kComputeBase + slot * 64, slot, /*cached=*/false);
            }
            for (std::size_t i = 0; i + 1 < nodes_; ++i) {
              (void)co_await ep->recv();
            }
          }
          *flag = 1;
        }(&machine.node(n).ap(), eps[n].get(), map, n, machine.size(),
          rounds, &done[n]));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = machine.run_epochs_until(
      [&] {
        for (const auto f : done) {
          if (f == 0) {
            return false;
          }
        }
        return true;
      },
      machine.now() + 10000 * sim::kMillisecond);
  const auto t1 = std::chrono::steady_clock::now();
  if (!ok) {
    std::fprintf(stderr, "bench_parallel: workload timed out\n");
  }

  RunOut out;
  out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  out.sim_ps = machine.now();
  out.events = machine.events_executed();
  return out;
}

/// Sequential wall time per node count, cached so the threads>0 rows can
/// report speedup relative to the threads=0 row of the same workload.
std::map<std::pair<std::size_t, int>, RunOut>& seq_baseline() {
  static std::map<std::pair<std::size_t, int>, RunOut> cache;
  return cache;
}

void BM_Parallel_AllToAll(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  // Scale rounds inversely with node count so every row simulates a
  // comparable amount of total traffic.
  const int rounds = static_cast<int>(1600 / nodes);

  RunOut out;
  for (auto _ : state) {
    out = run_all_to_all(nodes, threads, rounds);
    state.SetIterationTime(out.wall_sec);
  }

  const auto key = std::make_pair(nodes, rounds);
  if (threads == 0) {
    seq_baseline()[key] = out;
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["threads"] = threads;
  state.counters["sim_us"] = static_cast<double>(out.sim_ps) / 1e6;
  state.counters["events"] = static_cast<double>(out.events);
  const auto base = seq_baseline().find(key);
  if (base != seq_baseline().end() && out.wall_sec > 0.0) {
    state.counters["speedup"] = base->second.wall_sec / out.wall_sec;
    if (base->second.events != out.events) {
      // Bit-identity violation — the equivalence suite will catch it, but
      // flag it here too so a bench run never reports a bogus speedup.
      std::fprintf(stderr,
                   "bench_parallel: EVENT COUNT DIVERGED at nodes=%zu "
                   "threads=%u (%llu vs %llu)\n",
                   nodes, threads,
                   static_cast<unsigned long long>(base->second.events),
                   static_cast<unsigned long long>(out.events));
    }
  }
}

// threads=0 (sequential baseline) must come first in each node-count group
// so the speedup counter has its reference. g_threads (--threads=N) adds
// one extra user-chosen row per group.
void register_rows() {
  auto* b = benchmark::RegisterBenchmark("BM_Parallel_AllToAll",
                                         BM_Parallel_AllToAll);
  b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
  for (const std::int64_t nodes : {8, 16, 32}) {
    b->Args({nodes, 0});
    b->Args({nodes, 1});
    b->Args({nodes, 2});
    b->Args({nodes, 4});
    if (g_threads > 4) {
      b->Args({nodes, g_threads});
    }
  }
}

}  // namespace
}  // namespace sv::bench

int main(int argc, char** argv) {
  sv::bench::parse_threads_flag(argc, argv);
  sv::bench::register_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
