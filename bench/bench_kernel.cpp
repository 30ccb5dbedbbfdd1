// Kernel hot-path microbenchmark: raw schedule/dispatch throughput.
//
// Unlike the machine-level benches (which report *simulated* time), this
// bench reports **host** performance: events per host second and host
// nanoseconds per event. It is the ceiling on every other experiment —
// every simulated quantity is produced by pushing events through
// sim::Kernel, so this number is what "as fast as the hardware allows"
// means for the simulator itself.
//
// Cases, by delta (ticks from a dispatch to the push it makes) and pending
// depth (events queued at once):
//   ChainNear     64 self-rescheduling tickers, deltas 1-999, depth 64
//                 (the steady-state shape of coroutine wakeups)
//   ChainFar      64 tickers, deltas 8 192-65 535, depth 64
//   ChainMixed    32 tickers at deltas 1-999 and 32 at 16 385-17 383,
//                 depth 64
//   Burst         16 Ki pushes at deltas 1-2 048, then drain: depth up to
//                 16 Ki (push/pop bound)
//   MailboxPosts  64 Ki cross-domain post()s over 32 Ki ticks, injected and
//                 dispatched: mailbox depth up to 64 Ki, queue depth 1-2
//
// Results are recorded into BENCH_kernel.json (override with
// --json_out=FILE) so the perf trajectory is tracked across PRs, and
// --check_baseline=FILE fails the run on a >tolerance regression against a
// checked-in baseline (see bench/baseline_kernel.json and the CI
// perf-smoke job).
#include <chrono>
#include <cstdint>

#include "bench/bench_util.hpp"
#include "sim/kernel.hpp"

namespace sv::bench {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_sec(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Deterministic delta stream (xorshift64*), so every run schedules the
/// same event pattern.
struct Rng {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

/// A self-rescheduling event: the steady-state shape of simulation work
/// (coroutine wakeups that immediately schedule the next one). The functor
/// is small enough to live inline in the event queue's callable storage.
struct Ticker {
  sim::Kernel* kernel;
  std::uint64_t remaining;
  sim::Tick delta;

  void operator()() {
    if (remaining-- > 1) {
      kernel->schedule(delta, Ticker{*this});
    }
  }
};

constexpr std::uint64_t kChainEvents = 1 << 20;  // events per iteration
constexpr int kChains = 64;

/// Run `chains` interleaved tickers for ~kChainEvents total events, with
/// per-chain deltas drawn from [lo, hi). Returns host seconds.
double run_chains(sim::Tick lo, sim::Tick hi, sim::Tick far_every) {
  sim::Kernel k;
  Rng rng;
  const std::uint64_t per_chain = kChainEvents / kChains;
  for (int c = 0; c < kChains; ++c) {
    sim::Tick delta = lo + static_cast<sim::Tick>(rng.next() % (hi - lo));
    if (far_every != 0 && c % 2 == 1) {
      delta += far_every;  // odd chains step far_every ticks further
    }
    k.schedule(delta, Ticker{&k, per_chain, delta});
  }
  const auto t0 = Clock::now();
  k.run();
  return elapsed_sec(t0, Clock::now());
}

void finish(benchmark::State& state, const char* name, double host_sec,
            std::uint64_t events) {
  const double total_sec = host_sec;
  const double evps = static_cast<double>(events) / total_sec;
  state.counters["events/s"] = evps;
  state.counters["ns/event"] = 1e9 * total_sec / static_cast<double>(events);
  record_kernel_result(name, evps);
}

void BM_Kernel_ChainNear(benchmark::State& state) {
  double sec = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sec += run_chains(1, 1000, 0);
    events += kChainEvents;
  }
  finish(state, "ChainNear", sec, events);
}
BENCHMARK(BM_Kernel_ChainNear);

void BM_Kernel_ChainFar(benchmark::State& state) {
  double sec = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sec += run_chains(8192, 65536, 0);
    events += kChainEvents;
  }
  finish(state, "ChainFar", sec, events);
}
BENCHMARK(BM_Kernel_ChainFar);

void BM_Kernel_ChainMixed(benchmark::State& state) {
  double sec = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sec += run_chains(1, 1000, 16384);
    events += kChainEvents;
  }
  finish(state, "ChainMixed", sec, events);
}
BENCHMARK(BM_Kernel_ChainMixed);

void BM_Kernel_Burst(benchmark::State& state) {
  constexpr std::uint64_t kBurst = 1 << 14;
  constexpr int kRounds = 64;
  double sec = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Kernel k;
    Rng rng;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      const sim::Tick base = k.now();
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        k.schedule(1 + static_cast<sim::Tick>(rng.next() % 2048), [] {});
      }
      k.run_until(base + 4096);
      k.run();
    }
    sec += elapsed_sec(t0, Clock::now());
    events += kBurst * kRounds;
  }
  finish(state, "Burst", sec, events);
}
BENCHMARK(BM_Kernel_Burst);

void BM_Kernel_MailboxPosts(benchmark::State& state) {
  constexpr std::uint64_t kPosts = 1 << 16;
  constexpr int kRounds = 8;
  double sec = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Kernel k;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      const sim::Tick base = k.now() + 1;
      for (std::uint64_t i = 0; i < kPosts; ++i) {
        // Two sources racing into the same ticks: exercises the (tick,
        // src, seq) injection rule, not just the queue.
        k.post(base + i / 2, /*src=*/static_cast<std::uint32_t>(i % 2),
               /*seq=*/i, [] {});
      }
      k.run();
    }
    sec += elapsed_sec(t0, Clock::now());
    events += kPosts * kRounds;
  }
  finish(state, "MailboxPosts", sec, events);
}
BENCHMARK(BM_Kernel_MailboxPosts);

}  // namespace
}  // namespace sv::bench

int main(int argc, char** argv) {
  sv::bench::parse_kernel_json_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return sv::bench::finalize_kernel_results();
}
