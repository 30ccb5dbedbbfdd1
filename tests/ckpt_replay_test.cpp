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
// (svsim ckpt.at=..., with the keys its config text holds).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
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
  const ckpt::Snapshot final_a = a.capture("final");
  const ckpt::Snapshot final_b = b.capture("final");
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
  // The scaling work (O(active-domain) barrier, lazy node state) must
  // not perturb capture/replay: a 256-node machine restores
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
  EXPECT_EQ(snap.chunks().size(), 33u);

  // The explorer's scenario resumed from a snapshot replays to the
  // capture tick and byte-verifies every chunk (throwing on divergence)
  // before it continues; a fault-free continuation must end without
  // violation.
  const ckpt::ScenarioResult res = ckpt::drop_scenario(snap)({});
  EXPECT_FALSE(res.violation) << res.detail;
}

TEST(CkptReplayTest, ReliableCaptureHoldsEveryChannel) {
  // The ring's go-back-N windows and retransmit timers live in its
  // channels, outside the machine: each is a chunk of its own.
  test::RunSpec spec("reliable", {"count=4"});
  spec.nodes = 2;
  test::SteppableRun ring(spec);
  const ckpt::Snapshot snap = ring.capture_at(5 * sim::kMicrosecond);
  EXPECT_NE(snap.find("n0.reliable"), nullptr);
  EXPECT_NE(snap.find("n1.reliable"), nullptr);
  EXPECT_EQ(snap.find("n2.reliable"), nullptr);
}

TEST(CkptReplayTest, CorpusConfigIsTheSchema) {
  // The corpus embeds every machine and `reliable` key at its value, in
  // table order, exactly as snapshot_config writes it.
  const ckpt::Snapshot snap = ckpt::Snapshot::load_file(corpus_path());
  const ckpt::RunConfig run = ckpt::snapshot_args(snap);
  EXPECT_EQ(run.workload, "reliable");
  EXPECT_EQ(ckpt::snapshot_config(run), snap.config);
  for (const sys::KeyTable* t :
       {&sys::machine_keys(), &sys::workload("reliable").keys}) {
    for (const sys::Key& k : *t) {
      EXPECT_TRUE(k.def.empty() || run.cfg.contains(k.name)) << k.name;
    }
  }
}

TEST(CkptReplayTest, SubsetConfigStillRestores) {
  // Before every key was embedded, a snapshot held only the keys given
  // (in key order). Such a config reads back with the rest at their
  // defaults, and the rebuilt run replays to the same bytes.
  const std::string config = "workload=msg\ncount=12\nnodes=4\n";
  const sim::Config given = sim::Config::from_args({"count=12", "nodes=4"});
  sys::Machine original(sys::machine_params(given));
  const auto run = sys::workload("msg").launch(original, given);
  ckpt::run_to_tick(original, 10 * sim::kMicrosecond, sim::kMillisecond);
  const ckpt::Snapshot snap = ckpt::capture(original, config);

  const ckpt::RunConfig read = ckpt::snapshot_args(snap);
  EXPECT_EQ(read.workload, "msg");
  sys::Machine restored(sys::machine_params(read.cfg));
  const auto replay = sys::workload(read.workload).launch(restored, read.cfg);
  ckpt::run_to_tick(restored, snap.tick, sim::kMillisecond);
  expect_verify_ok(snap, ckpt::capture(restored, snap.config));
}

TEST(CkptReplayTest, SnapshotArgsRejectsBadConfigs) {
  // A snapshot's keys are checked against the same tables as svsim's
  // command line; each rejection is one line naming what is wrong.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"count=12\n", "names no workload"},
      {"workload=msgg\n", "unknown workload 'msgg'"},
      {"workload=msg\ncount=65\n", "count: "},
      {"workload=msg\nmax_drops=1\n", "unknown key 'max_drops'"},
  };
  for (const auto& [config, want] : cases) {
    SCOPED_TRACE(config);
    ckpt::Snapshot snap;
    snap.config = config;
    try {
      (void)ckpt::snapshot_args(snap);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace sv
