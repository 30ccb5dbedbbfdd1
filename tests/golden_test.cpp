// Golden-stats regression corpus (gem5-style result pinning): canonical
// machine-wide stats JSON for the paper's figure-3/figure-4 block
// transfers and the extended messaging / S-COMA / reliable-under-loss
// workloads, checked in under tests/golden/. Every run here uses the
// sequential kernel; parallel_equivalence_test then proves the partitioned
// kernel matches the sequential one, so together the two suites pin the
// parallel scheduler to these very bytes.
//
// On intentional behaviour changes regenerate the corpus with
//   SV_GOLDEN_WRITE=1 ./golden_test
// and commit the diff — reviewers see exactly which metrics moved.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/crc32.hpp"
#include "sys/stats_dump.hpp"
#include "tests/ckpt_util.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(SV_GOLDEN_DIR) + "/" + name + ".json";
}

std::uint32_t digest(const std::string& s) {
  return sim::crc32(std::as_bytes(std::span(s.data(), s.size())));
}

/// Compare `actual` against the checked-in corpus entry, or rewrite the
/// entry when SV_GOLDEN_WRITE is set. On mismatch, report the crc32 of
/// both versions and the first diverging byte so drift is easy to locate
/// in the (long) JSON strings.
void check_golden(const std::string& name, const std::string& actual) {
  ASSERT_FALSE(actual.empty()) << name;
  const std::string path = golden_path(name);

  if (std::getenv("SV_GOLDEN_WRITE") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << actual;
    ASSERT_TRUE(os.good()) << "write failed for " << path;
    return;
  }

  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path
                  << " — regenerate with SV_GOLDEN_WRITE=1 ./golden_test";
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string expected = buf.str();

  if (actual == expected) {
    return;
  }
  std::size_t diff = 0;
  while (diff < actual.size() && diff < expected.size() &&
         actual[diff] == expected[diff]) {
    ++diff;
  }
  const auto context = [&](const std::string& s) {
    const std::size_t from = diff < 40 ? 0 : diff - 40;
    return s.substr(from, 80);
  };
  FAIL() << "stats drifted from golden corpus entry '" << name << "'\n"
         << "  expected crc32=" << std::hex << digest(expected)
         << " actual crc32=" << digest(actual) << std::dec
         << "\n  first divergence at byte " << diff << ":\n  golden: ..."
         << context(expected) << "...\n  actual: ..." << context(actual)
         << "...\nIf the change is intentional, regenerate with "
            "SV_GOLDEN_WRITE=1 ./golden_test and commit the diff.";
}

/// Figure 3/4 block transfers: run the registry's xfer entry (one
/// approach at one size) on a 2-node fat tree and dump the machine stats.
std::string run_xfer(int approach, std::uint32_t bytes) {
  sys::Machine machine(test::small_machine_params(2));
  sim::Config cfg;
  cfg.set_u64("approach", static_cast<std::uint64_t>(approach));
  cfg.set_u64("bytes", bytes);
  EXPECT_EQ(sys::workload("xfer").launch(machine, cfg)->failure(), "")
      << "approach " << approach;
  std::ostringstream os;
  sys::collect_stats(machine).dump_json(os);
  return os.str();
}

TEST(GoldenStats, Fig3LatencyApproach1) {
  check_golden("fig3_xfer_a1_4kb", run_xfer(1, 4096));
}

TEST(GoldenStats, Fig3LatencyApproach3) {
  check_golden("fig3_xfer_a3_4kb", run_xfer(3, 4096));
}

TEST(GoldenStats, Fig4BandwidthApproach3) {
  check_golden("fig4_xfer_a3_64kb", run_xfer(3, 65536));
}

TEST(GoldenStats, ExtMsgAllToAll) {
  const auto res = test::run_machine_and_collect_stats(
      test::RunSpec("msg", {"count=16", "bytes=32"}));
  ASSERT_TRUE(res.completed);
  check_golden("ext_msg_4node", res.stats_json);
}

TEST(GoldenStats, ExtScomaContention) {
  const auto res = test::run_machine_and_collect_stats(
      test::RunSpec("scoma", {"ops=40", "words=8"}));
  ASSERT_TRUE(res.completed);
  check_golden("ext_scoma_4node", res.stats_json);
}

/// A 4-node reliable ring under 5% drops and 5% corruption.
test::RunSpec lossy_ring() {
  test::RunSpec spec("reliable", {"count=12", "bytes=48", "timeout_us=20"});
  spec.fault.seed = sim::Rng::kDefaultSeed;
  spec.fault.drop_rate = 0.05;
  spec.fault.corrupt_rate = 0.05;
  return spec;
}

TEST(GoldenStats, ExtReliableUnderLoss) {
  const auto res = test::run_machine_and_collect_stats(lossy_ring());
  ASSERT_TRUE(res.completed);
  check_golden("ext_reliable_4node", res.stats_json);
}

TEST(GoldenStats, ExtReliableRestored) {
  // A checkpointed-and-restored run pinned to the same corpus bytes as
  // any uninterrupted run would produce (DESIGN.md §14): the machine is
  // snapshotted mid-flight, a second machine replays to the capture tick,
  // byte-verifies against the snapshot, then finishes — and its stats
  // must match this corpus entry forever after.
  test::RunSpec spec = lossy_ring();
  spec.net = sys::Machine::NetKind::kFatTree;

  test::SteppableRun original(spec);
  const ckpt::Snapshot snap = original.capture_at(20 * sim::kMicrosecond);

  test::SteppableRun restored(spec);
  const ckpt::Snapshot replay = restored.capture_at(snap.tick);
  try {
    ckpt::Snapshot::verify(snap, replay);
  } catch (const ckpt::Error& e) {
    FAIL() << e.what();
  }
  restored.finish();
  check_golden("ext_reliable_restored", restored.stats_json());
}

// --- Application runtime (Ext-P): one entry per shipped app, each over
// the transport that stresses it best. The stats JSON includes the app.*
// transport counters, so both the machine and the runtime are pinned.

void check_app_golden(const std::string& name, const test::RunSpec& spec) {
  const auto res = test::run_machine_and_collect_stats(spec);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.app.errors, 0u);
  check_golden(name, res.stats_json);
}

TEST(GoldenStats, ExtAppStencilMsg) {
  check_app_golden("ext_app_stencil_msg",
                   test::RunSpec("app.stencil", {"transport=msg"}));
}

TEST(GoldenStats, ExtAppAllreduceShm) {
  check_app_golden(
      "ext_app_allreduce_shm",
      test::RunSpec("app.allreduce", {"transport=shm", "max_elems=32"}));
}

TEST(GoldenStats, ExtAppKvReliable) {
  check_app_golden(
      "ext_app_kv_reliable",
      test::RunSpec("app.kv", {"transport=reliable", "requests=16"}));
}

}  // namespace
}  // namespace sv
