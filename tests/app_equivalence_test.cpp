// The app runtime inherits the machine's tentpole guarantee: a World run
// at any thread count is bit-identical to the sequential run — same stats
// JSON (machine counters *and* app.* transport counters) to the last
// byte, same merged trace spans, same final time — for every shipped
// application over every transport. If these EXPECT_EQs break, rank
// programs have smuggled cross-domain state outside the mechanisms.
#include <string>

#include "tests/test_util.hpp"

namespace sv {
namespace {

constexpr std::size_t kTraceCapacity = 1u << 19;
const unsigned kThreadSweep[] = {1, 2, 4};
const std::uint64_t kSeeds[] = {1, 0xfeedbeef};

/// `app` over `transport` on 4 nodes, with a small per-seed parameter
/// variation so both sweeps exercise different traffic, not just a
/// different label.
test::RunSpec make_spec(const std::string& app, const std::string& transport,
                        std::uint64_t seed) {
  std::vector<std::string> args = {"transport=" + transport};
  if (app == "app.stencil") {  // uneven row blocks on one seed
    args.insert(args.end(), {"nx=8", "iters=2",
                             "ny=" + std::to_string(8 + seed % 3)});
  } else if (app == "app.allreduce") {
    args.insert(args.end(), {"min_elems=4", "max_elems=16",
                             "iters=" + std::to_string(1 + seed % 2)});
  } else {
    args.insert(args.end(), {"requests=8", "seed=" + std::to_string(seed)});
  }
  test::RunSpec spec(app, args);
  spec.trace_capacity = kTraceCapacity;
  return spec;
}

void expect_bit_identical_across_threads(test::RunSpec spec) {
  spec.threads = 0;
  const test::RunResult seq = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(seq.completed);
  ASSERT_EQ(seq.trace_dropped, 0u)
      << "trace ring wrapped; grow kTraceCapacity so the comparison is "
         "complete";
  ASSERT_FALSE(seq.stats_json.empty());
  ASSERT_FALSE(seq.span_dump.empty());
  EXPECT_EQ(seq.app.errors, 0u);

  for (const unsigned threads : kThreadSweep) {
    spec.threads = threads;
    const test::RunResult par = test::run_machine_and_collect_stats(spec);
    ASSERT_TRUE(par.completed) << "threads=" << threads;
    EXPECT_EQ(par.trace_dropped, 0u) << "threads=" << threads;
    EXPECT_EQ(par.end_time, seq.end_time) << "threads=" << threads;
    EXPECT_EQ(par.app.checksum, seq.app.checksum) << "threads=" << threads;
    EXPECT_EQ(par.app.ops, seq.app.ops) << "threads=" << threads;
    EXPECT_EQ(par.stats_json, seq.stats_json)
        << "stats diverged at threads=" << threads;
    EXPECT_EQ(par.span_dump, seq.span_dump)
        << "trace spans diverged at threads=" << threads;
  }
}

void sweep(const std::string& app, const std::string& transport) {
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_bit_identical_across_threads(make_spec(app, transport, seed));
  }
}

TEST(AppEquivalence, StencilOverMsg) {
  sweep("app.stencil", "msg");
}
TEST(AppEquivalence, StencilOverShm) {
  sweep("app.stencil", "shm");
}
TEST(AppEquivalence, StencilOverReliable) {
  sweep("app.stencil", "reliable");
}

TEST(AppEquivalence, AllreduceOverMsg) {
  sweep("app.allreduce", "msg");
}
TEST(AppEquivalence, AllreduceOverShm) {
  sweep("app.allreduce", "shm");
}
TEST(AppEquivalence, AllreduceOverReliable) {
  sweep("app.allreduce", "reliable");
}

TEST(AppEquivalence, KvOverMsg) {
  sweep("app.kv", "msg");
}
TEST(AppEquivalence, KvOverShm) {
  sweep("app.kv", "shm");
}
TEST(AppEquivalence, KvOverReliable) {
  sweep("app.kv", "reliable");
}

// S-COMA-backed shared-memory transport: coherent cached stores instead
// of posted uncached ones — a different protocol mix under the same ring.
TEST(AppEquivalence, StencilOverScomaShm) {
  test::RunSpec spec = make_spec("app.stencil", "shm", 1);
  spec.args.set("app.shm", "scoma");
  expect_bit_identical_across_threads(spec);
}

// Untraced S-COMA run: tracing disables the bus bypass, so only an
// untraced run exercises it under concurrent cached-access programs (ranks
// plus the shm dispatcher on one aP). Parity check: the bypass on and off
// must agree to the byte.
TEST(AppEquivalence, ScomaFastpathParityUntraced) {
  test::RunSpec spec = make_spec("app.stencil", "shm", 1);
  spec.args.set("app.shm", "scoma");
  spec.trace_capacity = 0;

  spec.fastpath = true;
  const test::RunResult fast = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(fast.completed);
  EXPECT_EQ(fast.app.errors, 0u);

  spec.fastpath = false;
  const test::RunResult slow = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(slow.completed);
  EXPECT_EQ(slow.end_time, fast.end_time);
  EXPECT_EQ(slow.app.checksum, fast.app.checksum);
  EXPECT_EQ(slow.app.ops, fast.app.ops);
  EXPECT_EQ(slow.stats_json, fast.stats_json)
      << "fastpath must be timing-invisible";
}

// A run that stops with a dispatcher poll mid-access dumps hit counters
// at the termination instant — which must not depend on whether the bus
// bypass is on. Cache hits count at the chunk-completion key; kv at 64
// requests over S-COMA is a configuration whose drain ends inside an
// access.
TEST(AppEquivalence, FastpathParityAtTerminationWindow) {
  test::RunSpec spec = make_spec("app.kv", "shm", 1);
  spec.args.set("app.shm", "scoma");
  spec.args.set("requests", "64");
  spec.trace_capacity = 0;

  spec.fastpath = true;
  const test::RunResult fast = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(fast.completed);
  EXPECT_EQ(fast.app.errors, 0u);

  spec.fastpath = false;
  const test::RunResult slow = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(slow.completed);
  EXPECT_EQ(slow.end_time, fast.end_time);
  EXPECT_EQ(slow.app.checksum, fast.app.checksum);
  EXPECT_EQ(slow.stats_json, fast.stats_json)
      << "hit counters must be mode-invariant at any stopping point";
}

// Ranks oversubscribe nodes: local short-circuit delivery and remote
// frames interleave, and the interleaving must still be epoch-stable.
TEST(AppEquivalence, TwoRanksPerNodeStillIdentical) {
  test::RunSpec spec = make_spec("app.allreduce", "msg", 1);
  spec.nodes = 2;
  spec.args.set("ranks", "4");
  expect_bit_identical_across_threads(spec);
}

}  // namespace
}  // namespace sv
