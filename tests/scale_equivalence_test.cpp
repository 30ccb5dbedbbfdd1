// Node-count-invariance lockdown for the scale work (ISSUE 9 / ROADMAP 1).
//
// The 512-1024-node changes — the O(active-domains) epoch barrier, the
// sharded StatRegistry, lazy clsSRAM state and lazy per-node pages — are
// all required to be *pure optimizations*: at small node counts every
// observable byte (machine-wide stats JSON, canonical trace-span dump)
// must be identical to what the machine produced before those changes
// existed. This suite pins that contract with a golden corpus generated
// from the pre-change tree (tests/golden/scale_*.golden) and swept over
//   {msg, shm, reliable, app.stencil} x nodes {8,16,32}
//     x threads {0,1,2,4} x fastpath {on,off}.
// Every cell of the sweep must match the one golden entry for its
// (workload, nodes) pair — byte-identity across thread counts and fast
// path settings falls out of the same comparison.
//
// On intentional behaviour changes regenerate with
//   SV_GOLDEN_WRITE=1 ./scale_equivalence_test
// and commit the diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/crc32.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

constexpr std::size_t kTraceCapacity = 1u << 20;

std::string golden_path(const std::string& name) {
  return std::string(SV_GOLDEN_DIR) + "/" + name + ".golden";
}

/// The pinned artifact: the full stats JSON followed by one trailer line
/// carrying the crc32 of the canonical trace-span dump. The span dump
/// itself is megabytes at 32 nodes, so the corpus stores its digest; the
/// stats stay as full text so drift is reviewable in the diff.
std::string artifact(const std::string& stats_json,
                     const std::string& span_dump) {
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "span_crc32=%08x\n",
                sim::crc32(std::as_bytes(
                    std::span(span_dump.data(), span_dump.size()))));
  return stats_json + trailer;
}

void check_against_golden(const std::string& name, const std::string& actual,
                          const std::string& context) {
  ASSERT_FALSE(actual.empty()) << name;
  const std::string path = golden_path(name);
  if (std::getenv("SV_GOLDEN_WRITE") != nullptr) {
    // Only the canonical cell (threads=0, fastpath on) writes; the other
    // sweep cells then verify against what it wrote, even in regen runs.
    if (context == "canonical") {
      std::ofstream os(path);
      ASSERT_TRUE(os) << "cannot write " << path;
      os << actual;
      ASSERT_TRUE(os.good()) << "write failed for " << path;
      return;
    }
  }
  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path
                  << " — regenerate with SV_GOLDEN_WRITE=1 "
                     "./scale_equivalence_test";
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
  const auto excerpt = [&](const std::string& s) {
    const std::size_t from = diff < 40 ? 0 : diff - 40;
    return s.substr(from, 80);
  };
  FAIL() << "scale equivalence broken for '" << name << "' at " << context
         << "\n  first divergence at byte " << diff << ":\n  golden: ..."
         << excerpt(expected) << "...\n  actual: ..." << excerpt(actual)
         << "...\nThe scale optimizations must be byte-invisible at small "
            "node counts. If the change is intentional, regenerate with "
            "SV_GOLDEN_WRITE=1 ./scale_equivalence_test and commit.";
}

struct SweepCell {
  unsigned threads;
  bool fastpath;
};

/// The swept cells. threads=0 is the classic sequential machine;
/// 1/2/4 partition into one domain per node. Fastpath off runs the
/// un-bypassed functional model — also required to be byte-identical.
const SweepCell kCells[] = {
    {0, true},  // canonical: writes the golden in regen runs
    {0, false}, {1, true}, {2, false}, {4, true}, {4, false},
};

std::string cell_name(const SweepCell& c) {
  std::ostringstream os;
  os << "threads=" << c.threads << " fastpath=" << c.fastpath;
  return os.str();
}

/// Run `spec` on `nodes` nodes at every sweep cell; each cell must match
/// the one golden entry `scale_<name>_<nodes>`.
void sweep(const std::string& name, std::size_t nodes, test::RunSpec spec) {
  const std::string golden = "scale_" + name + "_" + std::to_string(nodes);
  spec.nodes = nodes;
  if (spec.trace_capacity == 0) {
    spec.trace_capacity = kTraceCapacity;
  }
  for (const SweepCell& cell : kCells) {
    SCOPED_TRACE(golden + " " + cell_name(cell));
    spec.threads = cell.threads;
    spec.fastpath = cell.fastpath;
    const test::RunResult res = test::run_machine_and_collect_stats(spec);
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(res.trace_dropped, 0u)
        << "trace ring wrapped; the span digest would be incomplete";
    check_against_golden(golden, artifact(res.stats_json, res.span_dump),
                         &cell == &kCells[0] ? "canonical" : cell_name(cell));
  }
}

void sweep_stencil(std::size_t nodes) {
  test::RunSpec spec("app.stencil", {"transport=msg", "nx=8", "iters=2",
                                     "ny=" + std::to_string(2 * nodes)});
  // The stencil produces far more spans than the raw-mechanism
  // workloads; the sequential machine holds all of them in one ring.
  spec.trace_capacity = 4 * kTraceCapacity;
  sweep("stencil", nodes, spec);
}

TEST(ScaleEquivalence, Msg8) { sweep("msg", 8, {"msg", {"count=4"}}); }
TEST(ScaleEquivalence, Msg16) { sweep("msg", 16, {"msg", {"count=4"}}); }
TEST(ScaleEquivalence, Msg32) { sweep("msg", 32, {"msg", {"count=3"}}); }

TEST(ScaleEquivalence, Shm8) {
  sweep("shm", 8, {"scoma", {"ops=12", "words=8"}});
}
TEST(ScaleEquivalence, Shm16) {
  sweep("shm", 16, {"scoma", {"ops=8", "words=8"}});
}

TEST(ScaleEquivalence, Reliable8) {
  sweep("reliable", 8,
        {"reliable", {"count=3", "bytes=32", "timeout_us=20"}});
}
TEST(ScaleEquivalence, Reliable16) {
  sweep("reliable", 16,
        {"reliable", {"count=2", "bytes=32", "timeout_us=20"}});
}

TEST(ScaleEquivalence, Stencil8) { sweep_stencil(8); }
TEST(ScaleEquivalence, Stencil16) { sweep_stencil(16); }
TEST(ScaleEquivalence, Stencil32) { sweep_stencil(32); }

}  // namespace
}  // namespace sv
