// Scenario explorer: systematic fault-placement search (DESIGN.md §14).
//
// The explorer asks one question about a deterministic workload: does any
// pattern of at most `max_drops` packet losses break the workload's
// stated guarantees — and if so, which minimal pattern? It enumerates
// scripted drop patterns (fault::Plan::drop_script — sets of global
// drop-opportunity indices) in order of increasing cardinality, so the
// first violation found has minimal drop count, and within a cardinality
// patterns are visited in lexicographic order, so the answer is unique
// and reproducible.
//
// The search stays tractable through two sound prunings:
//   * reachability: extending pattern P with index i >= the number of
//     drop opportunities the run of P actually observed is a no-op —
//     run(P u {i}) == run(P) because opportunity i never happens — so
//     only indices below the observed horizon (and the configured cap)
//     are explored;
//   * monotone indices: patterns are ordered sets, each extension index
//     exceeds the pattern's last, so no pattern is visited twice.
//
// The engine is workload-agnostic: the caller supplies a ScenarioFn that
// builds a machine (typically restored from a checkpoint), applies the
// drop pattern, runs to completion, and reports what it saw:
// ckpt::drop_scenario (ckpt/scenario.hpp), or a synthetic one in a test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sv::ckpt {

/// One scripted run's outcome, as the caller's runner reports it.
struct ScenarioResult {
  /// A guarantee was broken (lost/duplicated/reordered message, missed
  /// give-up, stuck workload, ...).
  bool violation = false;
  /// Human-readable description of the violation (empty otherwise).
  std::string detail;
  /// Drop opportunities the run observed (fault::Injector::
  /// drop_opportunities()) — the reachability horizon for extensions.
  std::uint64_t opportunities = 0;
};

/// Run the workload with exactly the given drop pattern applied
/// (sorted global opportunity indices; empty = fault-free baseline).
using ScenarioFn =
    std::function<ScenarioResult(const std::vector<std::uint64_t>& drops)>;

struct ExploreParams {
  /// Pattern-cardinality bound: search |pattern| = 1 .. max_drops.
  std::uint32_t max_drops = 2;
  /// Hard cap on the opportunity indices considered, on top of each
  /// run's observed horizon. 0 = no cap.
  std::uint64_t max_opportunities = 0;
  /// Simulation budget; the search stops (exhausted = false) on excess.
  std::uint64_t max_runs = 10000;
};

struct ExploreResult {
  /// A violating pattern was found.
  bool found = false;
  /// The minimal violating pattern (fewest drops; lexicographically
  /// first among those). Empty when !found.
  std::vector<std::uint64_t> minimal;
  /// The violating run's own description.
  std::string detail;
  /// True when the baseline (no drops) already violates — found with an
  /// empty `minimal`.
  bool baseline_violation = false;
  /// The whole bound was searched without finding a violation: a proof
  /// that no pattern of <= max_drops drops (within the opportunity cap)
  /// breaks the workload. False when found or out of budget.
  bool exhausted = false;
  /// Simulated runs actually performed.
  std::uint64_t runs = 0;
  /// Patterns with no extension below the reachability horizon.
  std::uint64_t pruned_horizon = 0;
};

/// Search drop patterns of cardinality 1..max_drops (after a baseline
/// run) and return either the minimal violating pattern or the bounded
/// exhaustiveness proof. Deterministic: same ScenarioFn behaviour, same
/// answer.
[[nodiscard]] ExploreResult explore(const ScenarioFn& run,
                                    const ExploreParams& params);

}  // namespace sv::ckpt
