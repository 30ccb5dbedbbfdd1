// Restore-then-replay bit-identity (DESIGN.md §14): checkpoint a workload
// mid-run, rebuild an identical machine, replay it to the capture tick,
// and assert the re-captured state matches the snapshot byte for byte —
// then run both machines to completion and assert the final state, the
// stats JSON and (where tracing is on) the canonical trace-span dump are
// also byte-identical. The sweep covers every canonical workload
// {msg, shm, reliable, app.*}, both fast-path settings and sequential +
// partitioned kernels, because the restore contract is exactly "replay
// equals the uninterrupted run" and that must hold wherever the
// determinism contract does.
//
// The committed corpus entry tests/ckpt/reliable_ring.svck additionally
// pins the on-disk format: if a ckpt_save() changes shape, this suite
// fails until the snapshot version is bumped and the corpus regenerated
// (tools/svexplore write_snapshot=...).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/scenario.hpp"
#include "tests/ckpt_util.hpp"

namespace sv {
namespace {

void expect_verify_ok(const ckpt::Snapshot& expected,
                      const ckpt::Snapshot& actual) {
  try {
    ckpt::Snapshot::verify(expected, actual);
  } catch (const ckpt::Error& e) {
    ADD_FAILURE() << e.what();
  }
}

/// The core oracle: run A to the first boundary at/after `at` and
/// snapshot; run B — a fresh machine from the same spec, standing in for
/// the rebuilt-from-config restore path — to the same boundary, and
/// byte-verify. Then finish both and byte-compare the final capture and
/// the stats JSON.
void expect_replay_identical(const test::RunSpec& spec, sim::Tick at) {
  test::SteppableRun a(spec);
  const ckpt::Snapshot snap = a.capture_at(at);
  EXPECT_GE(snap.tick, at);
  EXPECT_FALSE(snap.chunks().empty());

  test::SteppableRun b(spec);
  const ckpt::Snapshot replay = b.capture_at(snap.tick);
  EXPECT_EQ(replay.tick, snap.tick);
  expect_verify_ok(snap, replay);

  a.finish();
  b.finish();
  const ckpt::Snapshot final_a = ckpt::capture(a.machine, "final");
  const ckpt::Snapshot final_b = ckpt::capture(b.machine, "final");
  EXPECT_EQ(final_a.tick, final_b.tick);
  expect_verify_ok(final_a, final_b);
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

/// A 4-node msg, scoma or reliable run; each takes the keys it declares.
test::RunSpec base_spec(const std::string& workload, unsigned threads,
                        bool fastpath) {
  test::RunSpec spec(workload, {"count=12", "bytes=32", "ops=40", "words=8",
                                "timeout_us=20"});
  spec.threads = threads;
  spec.fastpath = fastpath;
  return spec;
}

TEST(CkptReplayTest, MsgSweep) {
  for (const unsigned threads : {0u, 2u}) {
    for (const bool fastpath : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " fastpath=" << fastpath);
      expect_replay_identical(
          base_spec("msg", threads, fastpath),
          10 * sim::kMicrosecond);
    }
  }
}

TEST(CkptReplayTest, ShmSweep) {
  for (const unsigned threads : {0u, 2u}) {
    for (const bool fastpath : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " fastpath=" << fastpath);
      expect_replay_identical(
          base_spec("scoma", threads, fastpath),
          10 * sim::kMicrosecond);
    }
  }
}

TEST(CkptReplayTest, ReliableSweep) {
  for (const unsigned threads : {0u, 2u}) {
    for (const bool fastpath : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " fastpath=" << fastpath);
      expect_replay_identical(
          base_spec("reliable", threads, fastpath),
          10 * sim::kMicrosecond);
    }
  }
}

TEST(CkptReplayTest, ReliableUnderFaultsReplays) {
  // With the fault injector live, the snapshot additionally carries the
  // "fault" chunk (raw RNG words + decision cursors); the replay must
  // land on the very same words.
  test::RunSpec spec = base_spec("reliable", 0, true);
  spec.net = sys::Machine::NetKind::kFatTree;
  spec.fault.seed = 7;
  spec.fault.drop_rate = 0.05;
  spec.fault.corrupt_rate = 0.05;
  expect_replay_identical(spec, 20 * sim::kMicrosecond);
}

TEST(CkptReplayTest, PartitionedCaptureIsThreadCountInvariant) {
  // All partitioned machines have the same domain shape (one per node),
  // so the snapshot is a function of the spec and the tick alone —
  // identical for 1, 2 and 4 workers.
  const test::RunSpec spec1 = base_spec("msg", 1, true);
  test::SteppableRun one(spec1);
  const ckpt::Snapshot ref = one.capture_at(10 * sim::kMicrosecond);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    test::SteppableRun run(base_spec("msg", threads, true));
    expect_verify_ok(ref, run.capture_at(ref.tick));
  }
}

TEST(CkptReplayTest, LargeMachineReplays256) {
  // The scaling work (O(active-domain) barrier, sharded stats, lazy node
  // state) must not perturb capture/replay: a 256-node machine restores
  // and replays byte-identically under the same oracle as the 4-node
  // sweeps, sequential and partitioned.
  for (const unsigned threads : {0u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    test::RunSpec spec = base_spec("msg", threads, true);
    spec.nodes = 256;
    spec.args.set_u64("count", 2);
    expect_replay_identical(spec, 2 * sim::kMicrosecond);
  }
}

TEST(CkptReplayTest, TraceSpansByteIdentical) {
  // A checkpointed-then-continued run and an uninterrupted run emit the
  // same golden trace, byte for byte — capture is observation only.
  test::RunSpec spec = base_spec("msg", 0, true);
  spec.trace_capacity = 4096;

  test::SteppableRun a(spec);
  const ckpt::Snapshot snap = a.capture_at(10 * sim::kMicrosecond);
  a.finish();

  test::SteppableRun b(spec);
  const ckpt::Snapshot replay = b.capture_at(snap.tick);
  expect_verify_ok(snap, replay);
  b.finish();

  EXPECT_EQ(a.span_dump(), b.span_dump());
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

// --- Application runtime: the snapshot's "app" chunk covers rank
// completion, collective generations, transport sequence state and
// mailbox contents.

void expect_app_replay_identical(const test::RunSpec& spec,
                                 sim::Tick at) {
  test::SteppableRun a(spec);
  const ckpt::Snapshot snap = a.capture_at(at);
  EXPECT_NE(snap.find("app"), nullptr) << "app chunk missing from capture";

  test::SteppableRun b(spec);
  const ckpt::Snapshot replay = b.capture_at(snap.tick);
  expect_verify_ok(snap, replay);

  a.finish();
  b.finish();
  EXPECT_EQ(a.run->app.errors, 0u);
  EXPECT_EQ(b.run->app.errors, 0u);
  expect_verify_ok(a.capture("final"), b.capture("final"));
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

TEST(CkptReplayTest, AppStencilMsgSweep) {
  for (const unsigned threads : {0u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    test::RunSpec spec("app.stencil", {"transport=msg"});
    spec.threads = threads;
    expect_app_replay_identical(spec, 10 * sim::kMicrosecond);
  }
}

TEST(CkptReplayTest, AppAllreduceShmReplay) {
  expect_app_replay_identical(
      test::RunSpec("app.allreduce", {"transport=shm", "max_elems=32"}),
      10 * sim::kMicrosecond);
}

TEST(CkptReplayTest, AppKvReliableReplay) {
  expect_app_replay_identical(
      test::RunSpec("app.kv", {"transport=reliable", "requests=16"}),
      10 * sim::kMicrosecond);
}

// --- Committed corpus: the checked-in snapshot must restore against the
// current build. This is the on-disk format's regression pin: a changed
// ckpt_save() shape or walk order fails here first.

std::string corpus_path() {
  return std::string(SV_CKPT_DIR) + "/reliable_ring.svck";
}

TEST(CkptReplayTest, CommittedCorpusRestoresByteIdentically) {
  const ckpt::Snapshot snap = ckpt::Snapshot::load_file(corpus_path());
  EXPECT_GT(snap.tick, 0u);
  EXPECT_FALSE(snap.chunks().empty());

  // run_reliable_ring with a resume snapshot replays to the capture tick
  // and byte-verifies every chunk (throwing on divergence) before it
  // continues; a fault-free continuation must end without violation.
  const ckpt::RingSpec spec = ckpt::RingSpec::from_config(snap.config);
  const ckpt::ScenarioResult res = ckpt::run_reliable_ring(spec, {}, &snap);
  EXPECT_FALSE(res.violation) << res.detail;
}

}  // namespace
}  // namespace sv
