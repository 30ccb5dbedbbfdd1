// Shared test helpers: small-machine factories, kernel-driving utilities
// and a canonical "run a workload, dump its stats" harness used by the
// golden corpus and the parallel-equivalence sweep. The workloads
// themselves are registry entries (sys/workload.hpp), the same drivers
// svsim runs.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "msg/reliable.hpp"
#include "shm/scoma_region.hpp"
#include "sim/fastpath.hpp"
#include "sys/experiment.hpp"
#include "sys/machine.hpp"
#include "sys/stats_dump.hpp"
#include "sys/workload.hpp"
#include "trace/trace.hpp"

namespace sv::test {

inline sys::Machine::Params small_machine_params(
    std::size_t nodes, sys::Machine::NetKind net = sys::Machine::NetKind::kFatTree) {
  sys::Machine::Params p;
  p.nodes = nodes;
  p.net = net;
  p.node.dram_size = 8ull * 1024 * 1024;
  p.node.scoma_size = 1ull * 1024 * 1024;
  p.node.numa_backing_size = 8ull * 1024 * 1024;
  return p;
}

/// Drive `kernel` until `pred` holds; fail the test on timeout.
inline void drive(sim::Kernel& kernel, const std::function<bool()>& pred,
                  sim::Tick timeout = 100 * sim::kMillisecond) {
  ASSERT_TRUE(sys::run_until(kernel, pred, kernel.now() + timeout))
      << "simulation timed out at " << kernel.now() << " ps";
}

/// Run a single coroutine to completion on a bare kernel.
inline void run_co(sim::Kernel& kernel, sim::Co<void> co,
                   sim::Tick timeout = 100 * sim::kMillisecond) {
  sim::OneShot done(kernel);
  sim::spawn([](sim::Co<void> c, sim::OneShot* d) -> sim::Co<void> {
    co_await std::move(c);
    d->fire();
  }(std::move(co), &done));
  drive(kernel, [&] { return done.fired(); }, timeout);
}

/// Packet-conservation invariant checker (used by every fault test): after
/// `drain` of additional simulated time, everything the network's inject()
/// accepted must be accounted for — delivered or dropped, nothing stuck.
/// The drain runs in whole lookahead epochs so it is valid (and lands on
/// the same instant) for sequential and partitioned machines alike.
inline void expect_network_conserves(sys::Machine& machine,
                                     sim::Tick drain = 2 * sim::kMillisecond) {
  (void)machine.run_epochs_until([] { return false; },
                                 machine.now() + drain);
  const auto a = machine.network().audit();
  EXPECT_TRUE(a.balanced())
      << "packet conservation violated: injected=" << a.injected
      << " delivered=" << a.delivered << " dropped=" << a.dropped
      << " unaccounted=" << a.in_flight();
}

inline std::vector<std::byte> pattern_bytes(std::size_t n,
                                            std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 13 + seed) & 0xFF);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Canonical workload harness (golden corpus + parallel-equivalence sweep)
// ---------------------------------------------------------------------------

/// One registry workload (sys/workload.hpp) on a small machine: `workload`
/// and `args` are what svsim would take on its command line, and the
/// fields below shape small_machine_params.
struct RunSpec {
  RunSpec(std::string name, const std::vector<std::string>& kv)
      : workload(std::move(name)), args(sim::Config::from_args(kv)) {}

  std::string workload;
  sim::Config args;
  std::size_t nodes = 4;
  unsigned threads = 0;  ///< 0 = sequential single-domain machine
  sys::Machine::NetKind net = sys::Machine::NetKind::kIdeal;
  fault::Plan fault;
  /// The bus bypass (DESIGN.md §12). Defaults to the process environment
  /// (SV_NO_FASTPATH); fastpath_test pins it both ways to assert
  /// byte-identity within one process.
  bool fastpath = sim::fastpath_default();
  std::size_t trace_capacity = 0;  ///< >0 attaches tracers, captures spans
  sim::Tick deadline = 2000 * sim::kMillisecond;
  bool check_conservation = true;
};

struct RunResult {
  bool completed = false;
  sim::Tick end_time = 0;    ///< machine.now() after the run (and drain)
  std::string stats_json;    ///< machine stats (+ app.* counters), one object
  std::string span_dump;     ///< trace::canonical_span_dump (tracing only)
  std::uint64_t trace_dropped = 0;
  fault::Stats fault_stats;  ///< zeroes when the plan created no injector
  app::AppResult app;        ///< app.* runs only
};

inline sys::Machine::Params machine_params(const RunSpec& spec) {
  auto mp = small_machine_params(spec.nodes, spec.net);
  mp.threads = spec.threads;
  mp.fault = spec.fault;
  mp.node.bus.fastpath = spec.fastpath;
  return mp;
}

/// Machine stats plus, for app runs, the World's app.* counters.
inline std::string stats_json(const sys::Run& run) {
  std::ostringstream os;
  run.stats().dump_json(os);
  return os.str();
}

/// Build a machine for `spec`, launch its workload, run it to completion
/// in whole lookahead epochs and return the machine-wide stats JSON (plus
/// the canonical trace-span dump when tracing is on).
///
/// The drivers are partition-safe by construction: every completion flag,
/// endpoint, channel and region is owned by exactly one node's domain, and
/// completion is evaluated at epoch boundaries only (workers parked). The
/// identical RunSpec therefore produces a byte-identical RunResult at
/// every Params::threads value — that equivalence is what the equivalence
/// suites assert and golden_test pins over time. Reliable runs also wait
/// for empty retransmit windows and balanced books: tail ACKs are
/// droppable too.
inline RunResult run_machine_and_collect_stats(const RunSpec& spec) {
  sys::Machine machine(machine_params(spec));
  if (spec.trace_capacity > 0) {
    machine.enable_tracing(spec.trace_capacity);
  }
  const auto run = sys::workload(spec.workload).launch(machine, spec.args);
  const auto all_done = [&] {
    if (!run->finished()) {
      return false;
    }
    for (const auto& ch : run->channels) {
      if (ch->unacked() != 0) {
        return false;
      }
    }
    return run->channels.empty() || machine.network().audit().balanced();
  };

  RunResult res;
  res.completed =
      machine.run_epochs_until(all_done, machine.now() + spec.deadline);
  EXPECT_TRUE(res.completed)
      << spec.workload << " timed out at " << machine.now() << " ps";
  EXPECT_EQ(run->failure(), "");
  EXPECT_FALSE(run->any_gave_up());
  if (res.completed) {
    for (const auto& ch : run->channels) {  // a ring: exactly once
      EXPECT_EQ(ch->stats().payloads_delivered.value(),
                ch->stats().payloads_sent.value());
    }
  }
  if (spec.check_conservation && res.completed) {
    expect_network_conserves(machine);
  }

  res.end_time = machine.now();
  res.app = run->app;
  if (machine.fault_injector() != nullptr) {
    res.fault_stats = machine.fault_injector()->stats();
  }
  res.stats_json = stats_json(*run);
  if (spec.trace_capacity > 0) {
    const auto trs = machine.tracers();
    for (const auto* t : trs) {
      res.trace_dropped += t->dropped();
    }
    res.span_dump = trace::canonical_span_dump(trs);
  }
  return res;
}

}  // namespace sv::test
