#include "ckpt/explore.hpp"

#include <map>
#include <utility>

namespace sv::ckpt {

namespace {

/// Iterative-deepening DFS over ordered drop patterns. Scenario results
/// are cached by pattern, so a prefix evaluated as a round-j leaf costs
/// nothing when round k > j revisits it as an interior node.
class Search {
 public:
  Search(const ScenarioFn& run, const ExploreParams& params)
      : run_(run), params_(params) {}

  ExploreResult go() {
    std::vector<std::uint64_t> pattern;
    const ScenarioResult* base = eval(pattern);
    if (base == nullptr) {
      return std::move(result_);  // max_runs == 0
    }
    if (base->violation) {
      result_.found = true;
      result_.baseline_violation = true;
      result_.detail = base->detail;
      return std::move(result_);
    }
    for (std::uint32_t depth = 1; depth <= params_.max_drops; ++depth) {
      if (extend(pattern, *base, depth) || !budget_ok_) {
        break;
      }
    }
    result_.exhausted = !result_.found && budget_ok_;
    return std::move(result_);
  }

 private:
  /// Run (or recall) the scenario for `pattern`. Null when out of budget.
  const ScenarioResult* eval(const std::vector<std::uint64_t>& pattern) {
    auto it = cache_.find(pattern);
    if (it != cache_.end()) {
      return &it->second;
    }
    if (result_.runs >= params_.max_runs) {
      budget_ok_ = false;
      return nullptr;
    }
    ++result_.runs;
    return &cache_.emplace(pattern, run_(pattern)).first->second;
  }

  /// Append up to `remaining` further drops to `pattern` (whose own run
  /// produced `r`). True when a violation was found and recorded.
  bool extend(std::vector<std::uint64_t>& pattern, const ScenarioResult& r,
              std::uint32_t remaining) {
    if (remaining == 0) {
      return false;
    }
    std::uint64_t horizon = r.opportunities;
    if (params_.max_opportunities != 0 &&
        horizon > params_.max_opportunities) {
      horizon = params_.max_opportunities;
    }
    const std::uint64_t first = pattern.empty() ? 0 : pattern.back() + 1;
    if (first >= horizon) {
      ++result_.pruned_horizon;
      return false;
    }
    for (std::uint64_t i = first; i < horizon; ++i) {
      pattern.push_back(i);
      const ScenarioResult* next = eval(pattern);
      if (next == nullptr) {
        pattern.pop_back();
        return false;
      }
      if (next->violation) {
        result_.found = true;
        result_.minimal = pattern;
        result_.detail = next->detail;
        pattern.pop_back();
        return true;
      }
      const bool hit = extend(pattern, *next, remaining - 1);
      pattern.pop_back();
      if (hit) {
        return true;
      }
      if (!budget_ok_) {
        return false;
      }
    }
    return false;
  }

  const ScenarioFn& run_;
  const ExploreParams& params_;
  ExploreResult result_;
  std::map<std::vector<std::uint64_t>, ScenarioResult> cache_;
  bool budget_ok_ = true;
};

}  // namespace

ExploreResult explore(const ScenarioFn& run, const ExploreParams& params) {
  return Search(run, params).go();
}

}  // namespace sv::ckpt
