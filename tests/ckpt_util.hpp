// Steppable workload runs for the checkpoint tests: the same registry
// entries as run_machine_and_collect_stats (test_util.hpp), but the caller
// drives time — so a run can be captured mid-flight, a second identical
// run replayed to the same boundary, and the two snapshots byte-compared
// (Snapshot::verify). That replay equivalence is the restore contract
// DESIGN.md §14 states.
#pragma once

#include "ckpt/capture.hpp"
#include "tests/test_util.hpp"

namespace sv::test {

/// A RunSpec materialized as a machine the caller steps. Captures include
/// the "app" chunk for app.* runs and the channel chunks for `reliable`.
struct SteppableRun {
  sys::Machine machine;
  std::unique_ptr<sys::Run> run;

  explicit SteppableRun(const RunSpec& spec) : machine(machine_params(spec)) {
    if (spec.trace_capacity > 0) {
      machine.enable_tracing(spec.trace_capacity);
    }
    run = sys::workload(spec.workload).launch(machine, spec.args);
  }

  /// The node programs finished and every reliable channel is acked.
  [[nodiscard]] bool finished() const {
    if (!run->finished()) {
      return false;
    }
    for (const auto& ch : run->channels) {
      if (ch->unacked() != 0) {
        return false;
      }
    }
    return true;
  }

  /// Drive to the first epoch boundary at/after `target` and capture.
  [[nodiscard]] ckpt::Snapshot capture_at(
      sim::Tick target, sim::Tick deadline = 2000 * sim::kMillisecond) {
    ckpt::run_to_tick(machine, target, machine.now() + deadline);
    return capture("run");
  }

  [[nodiscard]] ckpt::Snapshot capture(std::string label) {
    return ckpt::capture(machine, std::move(label), run.get());
  }

  void finish(sim::Tick deadline = 2000 * sim::kMillisecond) {
    ASSERT_TRUE(machine.run_epochs_until([&] { return finished(); },
                                         machine.now() + deadline))
        << "workload timed out at " << machine.now() << " ps";
  }

  [[nodiscard]] std::string stats_json() {
    return test::stats_json(*run);
  }

  /// Canonical trace-span dump (tracing-enabled specs only).
  [[nodiscard]] std::string span_dump() {
    return trace::canonical_span_dump(machine.tracers());
  }
};

}  // namespace sv::test
