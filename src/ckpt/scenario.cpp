#include "ckpt/scenario.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ckpt/capture.hpp"
#include "sys/workload.hpp"

namespace sv::ckpt {

RunConfig run_config(const std::string& workload,
                     const std::vector<std::string>& args) {
  RunConfig run{workload, sim::Config::from_args(args)};
  sys::check_keys(run.cfg, {&sys::machine_keys(), &sys::run_keys(),
                            &sys::workload(workload).keys});
  return run;
}

std::string snapshot_config(const RunConfig& run) {
  std::string text = "workload=" + run.workload + "\n";
  for (const sys::KeyTable* t :
       {&sys::machine_keys(), &sys::workload(run.workload).keys}) {
    for (const sys::Key& k : *t) {
      if (run.cfg.contains(k.name) || !k.def.empty()) {
        text += k.name + "=" + run.cfg.get_string(k.name, k.def) + "\n";
      }
    }
  }
  // A restored run must not checkpoint again.
  for (const sys::Key& k : sys::run_keys()) {
    if (run.cfg.contains(k.name) && k.name.rfind("ckpt.", 0) != 0) {
      text += k.name + "=" + run.cfg.get_string(k.name) + "\n";
    }
  }
  return text;
}

RunConfig snapshot_args(const Snapshot& snap) {
  std::string workload;
  std::vector<std::string> args;
  std::istringstream in(snap.config);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("workload=", 0) == 0) {
      workload = line.substr(line.find('=') + 1);
    } else if (!line.empty()) {
      args.push_back(line);
    }
  }
  if (workload.empty()) {
    throw std::invalid_argument("snapshot config names no workload");
  }
  return run_config(workload, args);
}

namespace {

/// `run` launched on its machine with drops at opportunities base + d for
/// each d in `drops`, and, with `resume`, replayed to its tick and
/// byte-verified against it.
struct Trial {
  sys::Machine machine;
  std::unique_ptr<sys::Run> run;
  sim::Tick deadline;

  Trial(const RunConfig& rc, const std::vector<std::uint64_t>& drops,
        std::uint64_t base, const Snapshot* resume)
      : machine(params(rc.cfg, drops, base)),
        run(sys::workload(rc.workload).launch(machine, rc.cfg)),
        deadline(sys::Args(rc.cfg, sys::run_keys()).u64("deadline_ms") *
                 sim::kMillisecond) {
    if (resume != nullptr) {
      // Every drop lands at or after the snapshot's opportunity base, so
      // the prefix must reproduce the fault-free capture byte for byte.
      run_to_tick(machine, resume->tick, deadline);
      Snapshot::verify(*resume, capture(machine, resume->config, run.get()));
    }
  }

  static sys::Machine::Params params(const sim::Config& cfg,
                                     const std::vector<std::uint64_t>& drops,
                                     std::uint64_t base) {
    sys::Machine::Params mp = sys::machine_params(cfg);
    mp.fault.scripted = true;
    for (const std::uint64_t d : drops) {
      mp.fault.drop_script.push_back(base + d);
    }
    std::sort(mp.fault.drop_script.begin(), mp.fault.drop_script.end());
    return mp;
  }

  [[nodiscard]] std::uint64_t opportunities() {
    return machine.fault_injector()->drop_opportunities();
  }
};

ScenarioResult run_pattern(const RunConfig& rc,
                           const std::vector<std::uint64_t>& drops,
                           std::uint64_t base, const Snapshot* resume) {
  Trial t(rc, drops, base, resume);
  const bool completed = t.machine.run_epochs_until(
      [&] { return t.run->finished(); }, t.deadline);

  ScenarioResult r;
  r.opportunities = t.opportunities() - base;
  if (const std::string failure = t.run->failure(); !failure.empty()) {
    r.violation = true;
    r.detail = failure;
  } else if (!completed && !t.run->any_gave_up()) {
    r.violation = true;
    r.detail = "stuck: the run never completed and no channel gave up";
  }
  return r;
}

void require_empty_script(const sim::Config& cfg) {
  const std::string script = cfg.get_string("fault.drop_script");
  if (!script.empty()) {
    throw std::invalid_argument("fault.drop_script: expected an empty "
                                "script, got '" + script +
                                "' (the explorer writes it)");
  }
}

}  // namespace

ScenarioFn drop_scenario(RunConfig run) {
  require_empty_script(run.cfg);
  return [run = std::move(run)](const std::vector<std::uint64_t>& drops) {
    return run_pattern(run, drops, 0, nullptr);
  };
}

ScenarioFn drop_scenario(const Snapshot& snap) {
  RunConfig run = snapshot_args(snap);
  if (!run.cfg.contains("fault.drop_script")) {
    throw std::invalid_argument(
        "fault.drop_script: the snapshot was written without it, so its run "
        "has no fault injector; write it with fault.drop_script=");
  }
  require_empty_script(run.cfg);
  const std::uint64_t base = Trial(run, {}, 0, &snap).opportunities();
  return [run = std::move(run), base,
          snap](const std::vector<std::uint64_t>& drops) {
    return run_pattern(run, drops, base, &snap);
  };
}

}  // namespace sv::ckpt
