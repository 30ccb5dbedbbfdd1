// Application-runtime macro-benchmark: the registry's three app workloads
// (app.stencil halo exchange, app.allreduce ring-allreduce sweep, app.kv
// request/reply; sys/workload.hpp) run end-to-end through app::World over
// each transport mechanism.
//
// Every row reports simulated time (UseManualTime): what the machine
// configuration costs the *application* — the cross-mechanism comparison
// the platform exists to make (msg vs shm vs reliable for one program).
// Host-side cost of these runs is measured by svbench
// (`svbench/run.py --workload apps`).
//
// app_bytes is the application payload entered into the transport per
// run (aggregated over nodes), so bytes moved per mechanism is visible
// alongside the time it took.

#include "bench/bench_util.hpp"
#include "sys/workload.hpp"

namespace sv::bench {
namespace {

constexpr const char* kApps[] = {"app.stencil", "app.allreduce", "app.kv"};
constexpr const char* kTransports[] = {"msg", "shm", "reliable"};

void BM_App(benchmark::State& state) {
  const sys::Workload& app = sys::workload(kApps[state.range(0)]);
  sim::Config cfg;
  cfg.set("transport", kTransports[state.range(1)]);
  if (app.name == "app.kv") {
    cfg.set("requests", "16");
  }

  std::uint64_t app_bytes = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    // A World runs once; every iteration gets a fresh machine. The run is
    // deterministic, so repeat iterations only improve the host timing.
    sys::Machine machine(default_machine_params(4));
    maybe_enable_tracing(machine);
    const auto run = app.launch(machine, cfg);
    const bool ok =
        machine.run_epochs_until([&] { return run->finished(); },
                                 machine.now() + 2000 * sim::kMillisecond);
    if (!ok || !run->failure().empty()) {
      state.SkipWithError("application run failed");
      return;
    }
    report_sim_time(state, machine.now() - run->start);
    ops += run->app.ops;
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      app_bytes += run->world->transport(n).stats().bytes_sent.value();
    }
    maybe_write_trace(machine);
  }
  state.counters["app_bytes"] =
      static_cast<double>(app_bytes) /
      static_cast<double>(state.iterations());
  state.counters["ops"] =
      static_cast<double>(ops) / static_cast<double>(state.iterations());
}

void AppArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t a = 0; a < 3; ++a) {
    for (std::int64_t t = 0; t < 3; ++t) {
      b->Args({a, t});
    }
  }
}

BENCHMARK(BM_App)
    ->Apply(AppArgs)
    ->UseManualTime()
    ->Iterations(2)
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
