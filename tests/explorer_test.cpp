// Scenario-explorer properties (DESIGN.md §14): against synthetic
// scenarios with planted violations the search must return exactly the
// known-minimal drop pattern (fewest drops, lexicographically first), and
// against clean scenarios it must prove the bound exhaustively with a
// predictable number of simulated runs. The real reliable-ring scenario
// is then pinned: within the explored bound no drop pattern breaks the
// channel's exactly-once / in-order / give-up contract — if a future
// change to msg::ReliableChannel introduces a liveness or ordering bug,
// this suite both fails and prints the minimal counterexample pattern
// that reproduces it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/capture.hpp"
#include "ckpt/explore.hpp"
#include "ckpt/scenario.hpp"
#include "sys/workload.hpp"

namespace sv {
namespace {

bool contains(const std::vector<std::uint64_t>& v, std::uint64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(ExplorerTest, FindsSeededMinimalPair) {
  // Violation iff both opportunities 2 and 5 are dropped: neither single
  // drop trips it, so the minimal pattern has cardinality 2 and the
  // search must return exactly {2, 5}.
  const ckpt::ScenarioFn fn =
      [](const std::vector<std::uint64_t>& drops) {
        ckpt::ScenarioResult r;
        r.opportunities = 8;
        if (contains(drops, 2) && contains(drops, 5)) {
          r.violation = true;
          r.detail = "planted double-drop violation";
        }
        return r;
      };
  ckpt::ExploreParams p;
  p.max_drops = 2;
  const ckpt::ExploreResult res = ckpt::explore(fn, p);
  EXPECT_TRUE(res.found);
  EXPECT_FALSE(res.baseline_violation);
  EXPECT_FALSE(res.exhausted);
  EXPECT_EQ(res.minimal, (std::vector<std::uint64_t>{2, 5}));
  EXPECT_EQ(res.detail, "planted double-drop violation");
}

TEST(ExplorerTest, MinimalIsLexicographicallyFirst) {
  // Two independent single-drop violations: the lower index wins.
  const ckpt::ScenarioFn fn =
      [](const std::vector<std::uint64_t>& drops) {
        ckpt::ScenarioResult r;
        r.opportunities = 8;
        r.violation = contains(drops, 3) || contains(drops, 6);
        return r;
      };
  ckpt::ExploreParams p;
  p.max_drops = 2;
  const ckpt::ExploreResult res = ckpt::explore(fn, p);
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.minimal, (std::vector<std::uint64_t>{3}));
}

TEST(ExplorerTest, ProvesCleanBoundExhaustively) {
  // No violation anywhere, 4 opportunities, bound 2: the proof costs
  // exactly 1 baseline + 4 singles + C(4,2)=6 pairs = 11 runs (the
  // iterative deepening re-visits singles from the pattern cache, not
  // the simulator).
  std::uint64_t calls = 0;
  const ckpt::ScenarioFn fn =
      [&calls](const std::vector<std::uint64_t>&) {
        ++calls;
        ckpt::ScenarioResult r;
        r.opportunities = 4;
        return r;
      };
  ckpt::ExploreParams p;
  p.max_drops = 2;
  const ckpt::ExploreResult res = ckpt::explore(fn, p);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.runs, 11u);
  EXPECT_EQ(calls, res.runs) << "cache failed to absorb re-visits";
  // Extending {3} has no candidate below the horizon of 4.
  EXPECT_GE(res.pruned_horizon, 1u);
}

TEST(ExplorerTest, BaselineViolationShortCircuits) {
  const ckpt::ScenarioFn fn = [](const std::vector<std::uint64_t>&) {
    ckpt::ScenarioResult r;
    r.opportunities = 100;
    r.violation = true;
    r.detail = "broken without any drops";
    return r;
  };
  ckpt::ExploreParams p;
  const ckpt::ExploreResult res = ckpt::explore(fn, p);
  EXPECT_TRUE(res.found);
  EXPECT_TRUE(res.baseline_violation);
  EXPECT_TRUE(res.minimal.empty());
  EXPECT_EQ(res.runs, 1u);
}

TEST(ExplorerTest, RunBudgetStopsWithoutClaimingProof) {
  const ckpt::ScenarioFn fn = [](const std::vector<std::uint64_t>&) {
    ckpt::ScenarioResult r;
    r.opportunities = 64;
    return r;
  };
  ckpt::ExploreParams p;
  p.max_drops = 2;
  p.max_runs = 3;
  const ckpt::ExploreResult res = ckpt::explore(fn, p);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted) << "out-of-budget search must not claim a proof";
  EXPECT_EQ(res.runs, 3u);
}

TEST(ExplorerTest, MaxOpportunitiesCapsTheHorizon) {
  std::uint64_t max_index_seen = 0;
  const ckpt::ScenarioFn fn =
      [&max_index_seen](const std::vector<std::uint64_t>& drops) {
        for (const std::uint64_t d : drops) {
          max_index_seen = std::max(max_index_seen, d);
        }
        ckpt::ScenarioResult r;
        r.opportunities = 1000;
        return r;
      };
  ckpt::ExploreParams p;
  p.max_drops = 1;
  p.max_opportunities = 5;
  const ckpt::ExploreResult res = ckpt::explore(fn, p);
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.runs, 6u);  // baseline + indices 0..4
  EXPECT_EQ(max_index_seen, 4u);
}

// --- The real reliable-ring scenario. These searches simulate the full
// machine per candidate pattern, so the runs stay deliberately small.

ckpt::RunConfig small_ring() {
  return {"reliable",
          sim::Config::from_args({"nodes=2", "net=ideal", "dram_mb=64",
                                  "scoma_mb=16", "count=4", "bytes=16",
                                  "window=4", "timeout_us=20", "give_up=4",
                                  "deadline_ms=20", "fault.seed=1"})};
}

TEST(ExplorerTest, ReliableRingBaselineIsClean) {
  const ckpt::ScenarioResult res = ckpt::drop_scenario(small_ring())({});
  EXPECT_FALSE(res.violation) << res.detail;
  EXPECT_GT(res.opportunities, 0u);
}

TEST(ExplorerTest, ReliableRingSingleDropBoundProven) {
  // Pinned regression for msg::ReliableChannel's contract: within the
  // single-drop bound, every placement either recovers (retransmit) or
  // declares failure (give-up) — the exploration proved no liveness or
  // ordering violation exists, and this test keeps that proof true. A
  // regression prints the minimal counterexample pattern via `detail`.
  ckpt::ExploreParams p;
  p.max_drops = 1;
  p.max_runs = 500;
  const ckpt::ExploreResult res =
      ckpt::explore(ckpt::drop_scenario(small_ring()), p);
  EXPECT_FALSE(res.found) << "minimal violating pattern: " << res.detail;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GT(res.runs, 1u);
}

TEST(ExplorerTest, ReliableRingDoubleDropBoundProven) {
  // EXPERIMENTS.md Ext-Q's double-drop row: no pair of drops breaks the
  // ring's contract, and the proof takes exactly 3 438 runs.
  const ckpt::RunConfig ring = ckpt::run_config(
      "reliable", {"net=ideal", "dram_mb=64", "scoma_mb=16", "count=20",
                   "bytes=32", "window=8", "timeout_us=20", "give_up=4",
                   "deadline_ms=20", "fault.seed=1"});
  ckpt::ExploreParams p;
  p.max_drops = 2;
  p.max_runs = 5000;
  const ckpt::ExploreResult res =
      ckpt::explore(ckpt::drop_scenario(ring), p);
  EXPECT_FALSE(res.found) << "minimal violating pattern: " << res.detail;
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.runs, 3438u);
}

TEST(ExplorerTest, CheckpointResumeExploresOnlyTheSuffix) {
  // The snapshot is written as svsim writes one; fault.drop_script= runs
  // the injector in scripted mode with no drops.
  ckpt::RunConfig ring = small_ring();
  ring.cfg.set("count", "6");
  ring.cfg.set("fault.drop_script", "");
  sys::Machine machine(sys::machine_params(ring.cfg));
  const auto run = sys::workload(ring.workload).launch(machine, ring.cfg);
  ckpt::run_to_tick(machine, 2 * sim::kMicrosecond, 20 * sim::kMillisecond);
  const ckpt::Snapshot snap =
      ckpt::capture(machine, ckpt::snapshot_config(ring), run.get());
  EXPECT_GE(snap.tick, 2 * sim::kMicrosecond);
  EXPECT_NE(snap.find("fault"), nullptr) << "no fault injector captured";

  // A resumed run replays to the capture tick and byte-verifies against
  // the snapshot before continuing (it throws on any divergence), with
  // drop indices counted from the opportunities seen by the tick.
  const ckpt::ScenarioFn resumed = ckpt::drop_scenario(snap);
  const ckpt::ScenarioResult baseline = resumed({});
  EXPECT_FALSE(baseline.violation) << baseline.detail;

  ckpt::ExploreParams p;
  p.max_drops = 1;
  p.max_runs = 500;
  const ckpt::ExploreResult res = ckpt::explore(resumed, p);
  EXPECT_FALSE(res.found) << "minimal violating pattern: " << res.detail;
  EXPECT_TRUE(res.exhausted);
  // The suffix horizon is strictly smaller than the whole run's.
  EXPECT_LT(baseline.opportunities,
            ckpt::drop_scenario(ring)({}).opportunities);
}

TEST(ExplorerTest, CommittedCorpusExplorationReproduces) {
  // The committed checkpoint (tests/ckpt/reliable_ring.svck) is the
  // published starting point for `svexplore --snapshot=...`; the proof it
  // yields must reproduce on every machine, every build.
  const ckpt::Snapshot snap = ckpt::Snapshot::load_file(
      std::string(SV_CKPT_DIR) + "/reliable_ring.svck");
  ckpt::ExploreParams p;
  p.max_drops = 1;
  p.max_runs = 2000;
  const ckpt::ExploreResult res = ckpt::explore(ckpt::drop_scenario(snap), p);
  EXPECT_FALSE(res.found) << "minimal violating pattern: " << res.detail;
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.runs, 131u);
}

}  // namespace
}  // namespace sv
