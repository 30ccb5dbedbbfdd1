// The functional-model fast path (DESIGN.md §12): prove the DMI-style bus
// bypass actually engages on the paper's figure-3/4 workloads AND that
// engaging it changes nothing observable — stats JSON byte-identical to a
// slow-path (SV_NO_FASTPATH-equivalent) run of the same workload in the
// same process.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sys/stats_dump.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

struct XferOut {
  std::string stats;
  std::uint64_t fast_hits = 0;  // summed bus bypass completions
  std::uint64_t executed = 0;   // host events actually dispatched
  std::uint64_t scheduled = 0;  // sequence numbers issued (mode-invariant)
};

/// Run one block-transfer approach on a 2-node fat tree with the bypass
/// pinned on or off, returning the machine stats plus the mode-variant
/// engagement counter (which is deliberately NOT part of the stats dump —
/// it differs between modes by design).
XferOut run_xfer(int approach, std::uint32_t bytes, bool fastpath) {
  auto mp = test::small_machine_params(2);
  mp.node.bus.fastpath = fastpath;
  sys::Machine machine(mp);
  sim::Config cfg;
  cfg.set_u64("approach", static_cast<std::uint64_t>(approach));
  cfg.set_u64("bytes", bytes);
  EXPECT_EQ(sys::workload("xfer").launch(machine, cfg)->failure(), "")
      << "approach " << approach;

  XferOut out;
  for (sim::NodeId i = 0; i < machine.size(); ++i) {
    out.fast_hits += machine.node(i).bus().fast_path_hits();
  }
  out.executed = machine.events_executed();
  out.scheduled = machine.events_scheduled();
  std::ostringstream os;
  sys::collect_stats(machine).dump_json(os);
  out.stats = os.str();
  return out;
}

/// The core contract, per workload: fast mode must (a) actually take the
/// bypass and (b) dump byte-identical stats to slow mode.
void expect_engaged_and_identical(int approach, std::uint32_t bytes) {
  const XferOut fast = run_xfer(approach, bytes, /*fastpath=*/true);
  const XferOut slow = run_xfer(approach, bytes, /*fastpath=*/false);
  SCOPED_TRACE("approach " + std::to_string(approach) + " bytes " +
               std::to_string(bytes));
  EXPECT_EQ(slow.fast_hits, 0u);
  EXPECT_GT(fast.fast_hits, 0u) << "fast mode never took the bus bypass";
  EXPECT_EQ(fast.stats, slow.stats) << "bypass changed observable stats";
  EXPECT_EQ(fast.scheduled, slow.scheduled);
  // Engagement report — useful when tuning eligibility.
  std::printf(
      "[fastpath] a%d %uB: fast_hits=%llu events %llu -> %llu "
      "(of %llu keys)\n",
      approach, bytes, static_cast<unsigned long long>(fast.fast_hits),
      static_cast<unsigned long long>(slow.executed),
      static_cast<unsigned long long>(fast.executed),
      static_cast<unsigned long long>(fast.scheduled));
}

TEST(FastPath, Fig3Approach1ByteIdentical) {
  expect_engaged_and_identical(1, 4096);
}

TEST(FastPath, Fig3Approach3ByteIdentical) {
  expect_engaged_and_identical(3, 4096);
}

TEST(FastPath, Fig4Approach3ByteIdentical) {
  expect_engaged_and_identical(3, 65536);
}

/// Messaging and shared-memory workloads through the canonical harness:
/// identical RunSpec, fastpath pinned each way, byte-identical results.
void expect_runspec_identical(test::RunSpec spec) {
  spec.fastpath = true;
  const auto fast = test::run_machine_and_collect_stats(spec);
  spec.fastpath = false;
  const auto slow = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(fast.completed);
  ASSERT_TRUE(slow.completed);
  EXPECT_EQ(fast.end_time, slow.end_time);
  EXPECT_EQ(fast.stats_json, slow.stats_json);
}

TEST(FastPath, MsgWorkloadByteIdentical) {
  expect_runspec_identical(test::RunSpec("msg", {"count=16", "bytes=32"}));
}

TEST(FastPath, ShmWorkloadByteIdentical) {
  expect_runspec_identical(test::RunSpec("scoma", {"ops=40", "words=8"}));
}

/// The bypass composes with the partitioned kernel: a threaded fast run
/// matches a sequential slow run byte for byte (the strongest cross-mode
/// statement the suite makes).
TEST(FastPath, PartitionedFastMatchesSequentialSlow) {
  test::RunSpec spec("msg", {"count=12", "bytes=64"});

  spec.fastpath = true;
  spec.threads = 2;
  const auto fast_par = test::run_machine_and_collect_stats(spec);
  spec.fastpath = false;
  spec.threads = 0;
  const auto slow_seq = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(fast_par.completed);
  ASSERT_TRUE(slow_seq.completed);
  EXPECT_EQ(fast_par.end_time, slow_seq.end_time);
  EXPECT_EQ(fast_par.stats_json, slow_seq.stats_json);
}

}  // namespace
}  // namespace sv
