// Application-runtime macro-benchmark: the three shipped apps (stencil
// halo exchange, ring-allreduce sweep, KV request/reply) run end-to-end
// through app::World over each transport mechanism.
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

#include "app/apps.hpp"
#include "bench/bench_util.hpp"

namespace sv::bench {
namespace {

enum AppCase : std::int64_t { kStencil, kAllreduce, kKv };
enum TransportCase : std::int64_t { kMsg, kShm, kReliable };

app::World::Program make_program(std::int64_t a, app::AppResult* out) {
  switch (a) {
    case kStencil: {
      app::StencilParams p;  // 16x16, 4 iterations
      return app::make_stencil(p, out);
    }
    case kAllreduce: {
      app::AllreduceParams p;  // 4..64 doubling, 2 iterations each
      return app::make_allreduce_sweep(p, out);
    }
    default: {
      app::KvParams p;
      p.requests = 16;
      return app::make_kv(p, out);
    }
  }
}

void BM_App(benchmark::State& state) {
  const std::int64_t app_case = state.range(0);
  const std::int64_t transport_case = state.range(1);

  std::uint64_t app_bytes = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    // A World runs once; every iteration gets a fresh machine. The run is
    // deterministic, so repeat iterations only improve the host timing.
    sys::Machine machine(default_machine_params(4));
    maybe_enable_tracing(machine);
    app::World::Params wp;
    wp.transport = transport_case == kMsg   ? app::TransportKind::kMsg
                   : transport_case == kShm ? app::TransportKind::kShm
                                            : app::TransportKind::kReliable;
    app::AppResult result;
    app::World world(machine, wp);
    world.launch(make_program(app_case, &result));

    const sim::Tick t0 = machine.now();
    const bool ok =
        machine.run_epochs_until([&] { return world.done(); },
                                 machine.now() + 2000 * sim::kMillisecond);
    if (!ok || result.errors != 0) {
      state.SkipWithError("application run failed");
      return;
    }
    report_sim_time(state, machine.now() - t0);
    ops += result.ops;
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      app_bytes += world.transport(n).stats().bytes_sent.value();
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
  for (std::int64_t app_case : {kStencil, kAllreduce, kKv}) {
    for (std::int64_t transport_case : {kMsg, kShm, kReliable}) {
      b->Args({app_case, transport_case});
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
