#include "ckpt/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "ckpt/capture.hpp"
#include "sim/config.hpp"
#include "sys/workload.hpp"

namespace sv::ckpt {

namespace {

constexpr char kScenarioTag[] = "reliable_ring";

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      nl = text.size();
    }
    if (nl > pos) {
      lines.push_back(text.substr(pos, nl - pos));
    }
    pos = nl + 1;
  }
  return lines;
}

sim::Config parse_config(const std::string& text) {
  try {
    return sim::Config::from_args(split_lines(text));
  } catch (const std::exception& e) {
    throw Error(std::string("bad scenario config: ") + e.what());
  }
}

sys::Machine::Params ring_machine_params(const RingSpec& spec,
                                        std::vector<std::uint64_t> script) {
  sys::Machine::Params mp;
  mp.nodes = spec.nodes;
  mp.net = sys::Machine::NetKind::kIdeal;
  mp.fault.seed = spec.fault_seed;
  // Scripted mode (single event domain): even an empty script keeps the
  // injector alive so drop opportunities are counted.
  mp.fault.scripted = true;
  std::sort(script.begin(), script.end());
  mp.fault.drop_script = std::move(script);
  return mp;
}

/// The registry's reliable ring (verified payloads, give-ups recorded),
/// configured by the spec's own key=value form.
std::unique_ptr<sys::Run> launch_ring(sys::Machine& machine,
                                      const RingSpec& spec) {
  return sys::workload("reliable").launch(machine,
                                          parse_config(spec.to_config()));
}

}  // namespace

std::string RingSpec::to_config() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "scenario=%s\nnodes=%llu\ncount=%llu\nbytes=%llu\n"
                "window=%llu\ntimeout_us=%llu\ngive_up=%llu\n"
                "deadline_ms=%llu\nfault_seed=%llu\n",
                kScenarioTag, static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(window),
                static_cast<unsigned long long>(timeout_us),
                static_cast<unsigned long long>(give_up),
                static_cast<unsigned long long>(deadline_ms),
                static_cast<unsigned long long>(fault_seed));
  return buf;
}

RingSpec RingSpec::from_config(const std::string& text) {
  const sim::Config cfg = parse_config(text);
  if (cfg.get_string("scenario") != kScenarioTag) {
    throw Error("snapshot is not a reliable_ring scenario (scenario=" +
                cfg.get_string("scenario", "<missing>") + ")");
  }
  RingSpec spec;
  spec.nodes = cfg.get_u64("nodes", spec.nodes);
  spec.count = cfg.get_u64("count", spec.count);
  spec.bytes = cfg.get_u64("bytes", spec.bytes);
  spec.window = cfg.get_u64("window", spec.window);
  spec.timeout_us = cfg.get_u64("timeout_us", spec.timeout_us);
  spec.give_up = cfg.get_u64("give_up", spec.give_up);
  spec.deadline_ms = cfg.get_u64("deadline_ms", spec.deadline_ms);
  spec.fault_seed = cfg.get_u64("fault_seed", spec.fault_seed);
  return spec;
}

ScenarioResult run_reliable_ring(const RingSpec& spec,
                                 const std::vector<std::uint64_t>& drops,
                                 const Snapshot* resume) {
  RingSpec eff = spec;
  std::uint64_t base = 0;
  if (resume != nullptr) {
    eff = RingSpec::from_config(resume->config);
    base = parse_config(resume->config).get_u64("base_opp", 0);
  }
  std::vector<std::uint64_t> script;
  script.reserve(drops.size());
  for (const std::uint64_t d : drops) {
    script.push_back(base + d);
  }
  sys::Machine machine(ring_machine_params(eff, std::move(script)));
  const auto run = launch_ring(machine, eff);
  const sim::Tick deadline = eff.deadline_ms * sim::kMillisecond;

  if (resume != nullptr) {
    // Every scripted drop lands at/after the checkpoint's opportunity
    // base, so the replay prefix must reproduce the fault-free capture
    // bit-for-bit; verify() throws otherwise.
    run_to_tick(machine, resume->tick, deadline);
    Snapshot::verify(*resume, capture(machine, resume->config));
  }

  const bool completed =
      machine.run_epochs_until([&] { return run->finished(); }, deadline);

  ScenarioResult r;
  r.opportunities = machine.fault_injector()->drop_opportunities() - base;
  r.state_hash = capture(machine, "").state_hash();
  if (const std::string failure = run->failure(); !failure.empty()) {
    r.violation = true;
    r.detail = failure;
  } else if (!completed && !run->any_gave_up()) {
    r.violation = true;
    r.detail = "stuck: ring never completed and no channel gave up";
  }
  return r;
}

Snapshot checkpoint_reliable_ring(const RingSpec& spec, sim::Tick at) {
  sys::Machine machine(ring_machine_params(spec, {}));
  const auto run = launch_ring(machine, spec);
  run_to_tick(machine, at, spec.deadline_ms * sim::kMillisecond);
  std::string config = spec.to_config();
  config += "base_opp=" +
            std::to_string(machine.fault_injector()->drop_opportunities()) +
            "\n";
  return capture(machine, std::move(config));
}

ScenarioFn reliable_ring_scenario(RingSpec spec, const Snapshot* resume) {
  return [spec, resume](const std::vector<std::uint64_t>& drops) {
    return run_reliable_ring(spec, drops, resume);
  };
}

}  // namespace sv::ckpt
