// The tentpole guarantee of the partitioned machine: a run at any thread
// count is *bit-identical* to the sequential run — the same stats JSON to
// the last byte and the same merged trace-span sequence — across
// workloads and fault seeds. This is the whole point of the deterministic
// (tick, source, sequence) mailbox rule; if any of these EXPECT_EQs break,
// parallel mode has silently become a different simulator.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "tests/test_util.hpp"

namespace sv {
namespace {

constexpr std::size_t kTraceCapacity = 1u << 19;
const unsigned kThreadSweep[] = {1, 2, 4};
const std::uint64_t kSeeds[] = {sim::Rng::kDefaultSeed,
                                sim::Rng::kDefaultSeed + 1, 0xfeedbeef};

/// Run `spec` sequentially, then at each swept thread count, and require
/// byte-identical stats and span dumps. The spec's net must be kIdeal
/// (partitioning requires it) and its tracer must be big enough that
/// nothing is dropped — a wrapped ring would hide divergence.
void expect_bit_identical_across_threads(
    test::RunSpec spec, std::span<const unsigned> sweep = kThreadSweep) {
  spec.net = sys::Machine::NetKind::kIdeal;
  spec.trace_capacity = kTraceCapacity;

  spec.threads = 0;
  const test::RunResult seq = test::run_machine_and_dump_stats(spec);
  ASSERT_TRUE(seq.completed);
  ASSERT_EQ(seq.trace_dropped, 0u)
      << "trace ring wrapped; grow kTraceCapacity so the comparison is "
         "complete";
  ASSERT_FALSE(seq.stats_json.empty());
  ASSERT_FALSE(seq.span_dump.empty());

  for (const unsigned threads : sweep) {
    spec.threads = threads;
    const test::RunResult par = test::run_machine_and_dump_stats(spec);
    ASSERT_TRUE(par.completed) << "threads=" << threads;
    EXPECT_EQ(par.trace_dropped, 0u) << "threads=" << threads;
    EXPECT_EQ(par.end_time, seq.end_time) << "threads=" << threads;
    EXPECT_EQ(par.stats_json, seq.stats_json)
        << "stats diverged at threads=" << threads;
    EXPECT_EQ(par.span_dump, seq.span_dump)
        << "trace spans diverged at threads=" << threads;
  }
}

fault::Plan corrupt_only_plan(std::uint64_t seed) {
  // Corruption flips payload bytes but still delivers, so unreliable
  // workloads complete; the fault RNG streams and trace markers still get
  // exercised across domains.
  fault::Plan p;
  p.seed = seed;
  p.corrupt_rate = 0.05;
  return p;
}

fault::Plan lossy_plan(std::uint64_t seed) {
  fault::Plan p;
  p.seed = seed;
  p.drop_rate = 0.05;
  p.corrupt_rate = 0.05;
  p.rx_overflow_rate = 0.02;
  return p;
}

TEST(ParallelEquivalence, MsgAllToAllMatchesSequential) {
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    test::RunSpec spec("msg", {"count=10", "bytes=32"});
    spec.fault = corrupt_only_plan(seed);
    expect_bit_identical_across_threads(spec);
  }
}

TEST(ParallelEquivalence, ScomaContentionMatchesSequential) {
  // No injector here: S-COMA protocol messages carry their command
  // structure in the packet payload, so corruption (the only fault that
  // unreliable traffic survives) would scramble the protocol itself. The
  // three seeds instead vary the access streams, which reshuffles every
  // coherence interleaving the epochs have to reproduce.
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_bit_identical_across_threads(test::RunSpec(
        "scoma", {"ops=30", "words=8", "seed=" + std::to_string(seed)}));
  }
}

TEST(ParallelEquivalence, ReliableRingUnderLossMatchesSequential) {
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    test::RunSpec spec("reliable",
                       {"count=8", "bytes=48", "timeout_us=20"});
    spec.fault = lossy_plan(seed);
    // The completion predicate already requires balanced books; skip the
    // extra conservation drain, whose millisecond of retransmit-timer
    // traffic would need an enormous trace ring.
    spec.check_conservation = false;
    expect_bit_identical_across_threads(spec);
  }
}

TEST(ParallelEquivalence, FaultFreeMachineMatchesToo) {
  // No injector at all: the zero-fault fast path must be just as identical.
  expect_bit_identical_across_threads(
      test::RunSpec("msg", {"count=12", "bytes=32"}));
}

TEST(ParallelEquivalence, MechanismDriversMatchSequential) {
  // The EXPERIMENTS.md drivers time arrivals with signals inside each
  // node's domain, so partitioning must not move a tick of theirs either.
  const std::vector<std::vector<std::string>> runs = {
      {"pair", "count=20", "reply=1"},
      {"pair", "kind=tagon", "bytes=80", "interrupt=1"},
      {"rxq", "queues=4"},
      {"txarb", "bulk_class=3"},
      {"access", "warm=1"},
      {"access", "region=numa", "op=store"},
      {"packets", "count=50", "probe=1"},
      {"packets", "count=4", "alltoall=1"},
      {"diff", "mode=value", "dirty=64"},
      {"pair", "count=30", "reply=1", "background=both"},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run[0] + " " + run[1]);
    test::RunSpec spec(run[0], {run.begin() + 1, run.end()});
    // Background load never stops, so its network never drains.
    spec.check_conservation = run.back().rfind("background=", 0) != 0;
    expect_bit_identical_across_threads(spec);
  }
}

TEST(ParallelEquivalence, SharedTranslationPages128) {
  // Above 64 nodes the translation table fills whole sSRAM pages, and
  // every node's sSRAM shares them (mem::BackingStore::adopt), so here
  // helper threads read one page at once for every translated send. 128
  // nodes is the smallest such machine; two messages a node keep it quick
  // enough for the TSan lane.
  test::RunSpec spec("msg", {"count=2", "bytes=32"});
  spec.nodes = 128;
  const unsigned threads[] = {2, 4};
  expect_bit_identical_across_threads(spec, threads);
}

TEST(ParallelEquivalence, OversubscribedThreadsStillIdentical) {
  // More nodes than workers: each worker runs several domains; results
  // must not change (ParallelKernel clamps and stripes deterministically,
  // but the *simulation output* must be stripe-agnostic).
  test::RunSpec spec("msg", {"count=6", "bytes=32"});
  spec.nodes = 6;
  expect_bit_identical_across_threads(spec);
}

}  // namespace
}  // namespace sv
