// The app runtime inherits the machine's tentpole guarantee: a World run
// at any thread count is bit-identical to the sequential run — same stats
// JSON (machine counters *and* app.* transport counters) to the last
// byte, same merged trace spans, same final time — for every shipped
// application over every transport. If these EXPECT_EQs break, rank
// programs have smuggled cross-domain state outside the mechanisms.
#include <string>

#include "tests/app_util.hpp"

namespace sv {
namespace {

constexpr std::size_t kTraceCapacity = 1u << 19;
const unsigned kThreadSweep[] = {1, 2, 4};
const std::uint64_t kSeeds[] = {1, 0xfeedbeef};

/// Derive a small per-seed parameter variation so both sweeps exercise
/// different traffic, not just a different label.
test::AppRunSpec make_spec(test::AppKind app, app::TransportKind tk,
                           std::uint64_t seed) {
  test::AppRunSpec spec;
  spec.app = app;
  spec.transport = tk;
  spec.nodes = 4;
  spec.trace_capacity = kTraceCapacity;
  switch (app) {
    case test::AppKind::kStencil:
      spec.stencil.nx = 8;
      spec.stencil.ny = 8 + (seed % 3);  // uneven row blocks on one seed
      spec.stencil.iters = 2;
      break;
    case test::AppKind::kAllreduce:
      spec.allreduce.min_elems = 4;
      spec.allreduce.max_elems = 16;
      spec.allreduce.iters = 1 + (seed % 2);
      break;
    case test::AppKind::kKv:
      spec.kv.requests = 8;
      spec.kv.seed = seed;
      break;
  }
  return spec;
}

void expect_bit_identical_across_threads(test::AppRunSpec spec) {
  spec.threads = 0;
  const test::AppRunResult seq = test::run_app_and_dump_stats(spec);
  ASSERT_TRUE(seq.completed);
  ASSERT_EQ(seq.trace_dropped, 0u)
      << "trace ring wrapped; grow kTraceCapacity so the comparison is "
         "complete";
  ASSERT_FALSE(seq.stats_json.empty());
  ASSERT_FALSE(seq.span_dump.empty());
  EXPECT_EQ(seq.app.errors, 0u);

  for (const unsigned threads : kThreadSweep) {
    spec.threads = threads;
    const test::AppRunResult par = test::run_app_and_dump_stats(spec);
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

void sweep(test::AppKind app, app::TransportKind tk) {
  for (const auto seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_bit_identical_across_threads(make_spec(app, tk, seed));
  }
}

TEST(AppEquivalence, StencilOverMsg) {
  sweep(test::AppKind::kStencil, app::TransportKind::kMsg);
}
TEST(AppEquivalence, StencilOverShm) {
  sweep(test::AppKind::kStencil, app::TransportKind::kShm);
}
TEST(AppEquivalence, StencilOverReliable) {
  sweep(test::AppKind::kStencil, app::TransportKind::kReliable);
}

TEST(AppEquivalence, AllreduceOverMsg) {
  sweep(test::AppKind::kAllreduce, app::TransportKind::kMsg);
}
TEST(AppEquivalence, AllreduceOverShm) {
  sweep(test::AppKind::kAllreduce, app::TransportKind::kShm);
}
TEST(AppEquivalence, AllreduceOverReliable) {
  sweep(test::AppKind::kAllreduce, app::TransportKind::kReliable);
}

TEST(AppEquivalence, KvOverMsg) {
  sweep(test::AppKind::kKv, app::TransportKind::kMsg);
}
TEST(AppEquivalence, KvOverShm) {
  sweep(test::AppKind::kKv, app::TransportKind::kShm);
}
TEST(AppEquivalence, KvOverReliable) {
  sweep(test::AppKind::kKv, app::TransportKind::kReliable);
}

// S-COMA-backed shared-memory transport: coherent cached stores instead
// of posted uncached ones — a different protocol mix under the same ring.
TEST(AppEquivalence, StencilOverScomaShm) {
  test::AppRunSpec spec = make_spec(test::AppKind::kStencil,
                                    app::TransportKind::kShm, 1);
  spec.shm_region = app::ShmTransport::Region::kScoma;
  expect_bit_identical_across_threads(spec);
}

// Untraced S-COMA run: tracing disables the bus bypass, so only an
// untraced run exercises it under concurrent cached-access programs (ranks
// plus the shm dispatcher on one aP). Parity check: the bypass on and off
// must agree to the byte.
TEST(AppEquivalence, ScomaFastpathParityUntraced) {
  test::AppRunSpec spec = make_spec(test::AppKind::kStencil,
                                    app::TransportKind::kShm, 1);
  spec.shm_region = app::ShmTransport::Region::kScoma;
  spec.trace_capacity = 0;

  spec.fastpath = true;
  const test::AppRunResult fast = test::run_app_and_dump_stats(spec);
  ASSERT_TRUE(fast.completed);
  EXPECT_EQ(fast.app.errors, 0u);

  spec.fastpath = false;
  const test::AppRunResult slow = test::run_app_and_dump_stats(spec);
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
  test::AppRunSpec spec = make_spec(test::AppKind::kKv,
                                    app::TransportKind::kShm, 1);
  spec.shm_region = app::ShmTransport::Region::kScoma;
  spec.trace_capacity = 0;
  spec.kv.requests = 64;
  spec.kv.seed = 1;

  spec.fastpath = true;
  const test::AppRunResult fast = test::run_app_and_dump_stats(spec);
  ASSERT_TRUE(fast.completed);
  EXPECT_EQ(fast.app.errors, 0u);

  spec.fastpath = false;
  const test::AppRunResult slow = test::run_app_and_dump_stats(spec);
  ASSERT_TRUE(slow.completed);
  EXPECT_EQ(slow.end_time, fast.end_time);
  EXPECT_EQ(slow.app.checksum, fast.app.checksum);
  EXPECT_EQ(slow.stats_json, fast.stats_json)
      << "hit counters must be mode-invariant at any stopping point";
}

// Ranks oversubscribe nodes: local short-circuit delivery and remote
// frames interleave, and the interleaving must still be epoch-stable.
TEST(AppEquivalence, TwoRanksPerNodeStillIdentical) {
  test::AppRunSpec spec = make_spec(test::AppKind::kAllreduce,
                                    app::TransportKind::kMsg, 1);
  spec.nodes = 2;
  spec.nranks = 4;
  expect_bit_identical_across_threads(spec);
}

}  // namespace
}  // namespace sv
