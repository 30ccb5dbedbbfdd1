// svexplore: systematic fault-scenario exploration (DESIGN.md §14,
// EXPERIMENTS.md Ext-Q).
//
// Enumerates scripted packet-drop patterns against a run and reports the
// minimal pattern that breaks its contract (for the reliable ring:
// exactly-once, in-order delivery or a declared give-up), or a proof that
// no pattern of at most max_drops drops within the explored opportunity
// horizon can. Same arguments, same answer, on every machine.
//
//   svexplore [key=value ...]
//   svexplore --snapshot=FILE [max_drops=N max_opportunities=N max_runs=N]
//
// Standalone, it explores the registry's `reliable` ring built from the
// machine keys, the `reliable` keys and deadline_ms, read as svsim reads
// them. --snapshot takes any checkpoint svsim wrote with
// fault.drop_script=: the snapshot is the whole configuration, every run
// replays to its tick and byte-verifies, and only drop placements after
// it are explored. The search keys are max_drops (default 2),
// max_opportunities (0 = the observed horizon) and max_runs (default
// 2000). Bad input is one line on stderr and exit 2.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/scenario.hpp"
#include "sys/workload.hpp"

using namespace sv;

namespace {

/// svexplore's own keys: the search bounds.
const sys::KeyTable& explore_keys() {
  static const sys::KeyTable keys = {
      sys::uint_key("max_drops", 2, 0, 8, "drops per pattern"),
      sys::uint_key("max_opportunities", 0, 0, sys::kNoLimit,
                    "drop horizon; 0 = observed"),
      sys::uint_key("max_runs", 2000, 1, sys::kNoLimit, "run budget"),
  };
  return keys;
}

/// The one run key a standalone exploration takes.
const sys::KeyTable& deadline_key() {
  static const sys::KeyTable keys = {*std::find_if(
      sys::run_keys().begin(), sys::run_keys().end(),
      [](const sys::Key& k) { return k.name == "deadline_ms"; })};
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--snapshot=", 0) == 0) {
      snapshot_path = a.substr(std::strlen("--snapshot="));
    } else {
      args.push_back(a);
    }
  }

  try {
    const sim::Config cfg = sim::Config::from_args(args);
    ckpt::ScenarioFn scenario;
    if (snapshot_path.empty()) {
      sys::check_keys(cfg, {&explore_keys(), &sys::machine_keys(),
                            &sys::workload("reliable").keys, &deadline_key()});
      scenario = ckpt::drop_scenario({"reliable", cfg});
    } else {
      sys::check_keys(cfg, {&explore_keys()});
      const ckpt::Snapshot snap = ckpt::Snapshot::load_file(snapshot_path);
      scenario = ckpt::drop_scenario(snap);
      std::printf("svexplore: exploring from %s (tick %llu)\n",
                  snapshot_path.c_str(),
                  static_cast<unsigned long long>(snap.tick));
    }
    const sys::Args search(cfg, explore_keys());
    ckpt::ExploreParams ep;
    ep.max_drops = static_cast<std::uint32_t>(search.u64("max_drops"));
    ep.max_opportunities = search.u64("max_opportunities");
    ep.max_runs = search.u64("max_runs");
    const ckpt::ExploreResult res = ckpt::explore(scenario, ep);

    std::printf("svexplore: %llu runs, %llu horizon-pruned\n",
                static_cast<unsigned long long>(res.runs),
                static_cast<unsigned long long>(res.pruned_horizon));
    if (res.found) {
      std::string pattern;
      for (const std::uint64_t i : res.minimal) {
        if (!pattern.empty()) {
          pattern += ',';
        }
        pattern += std::to_string(i);
      }
      std::printf("VIOLATION: minimal drop pattern {%s}%s\n  %s\n",
                  pattern.c_str(),
                  res.baseline_violation ? " (baseline, no drops)" : "",
                  res.detail.c_str());
      return 1;
    }
    if (res.exhausted) {
      std::printf("PROVEN: no pattern of <= %u drops breaks the contract "
                  "(bound searched exhaustively)\n",
                  ep.max_drops);
      return 0;
    }
    std::printf("INCONCLUSIVE: run budget (%llu) exhausted before the "
                "bound was covered\n",
                static_cast<unsigned long long>(ep.max_runs));
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svexplore: %s\n", e.what());
    return 2;
  }
}
