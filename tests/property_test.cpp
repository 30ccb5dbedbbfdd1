// Cross-cutting property sweeps:
//   - Express messages: random (vdest byte, extra, word) tuples round-trip
//     end to end, in order, through the full aP/bus/NIU/network path;
//   - memory system: random-size random-alignment accesses through the
//     cached and uncached paths agree with a reference model;
//   - dirty tracking: a random write pattern marks exactly the written
//     lines, and a cls-mode diff reproduces the page remotely.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "sim/random.hpp"
#include "tests/test_util.hpp"
#include "xfer/approaches.hpp"

namespace sv {
namespace {

class ExpressProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExpressProperty, RandomTuplesRoundTripInOrder) {
  sys::Machine machine(test::small_machine_params(2));
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  const auto map = machine.addr_map();
  sim::Rng rng(GetParam());

  constexpr int kCount = 60;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> sent;
  for (int i = 0; i < kCount; ++i) {
    sent.emplace_back(static_cast<std::uint8_t>(rng.below(256)),
                      static_cast<std::uint32_t>(rng.next()));
  }

  machine.node(0).ap().run(
      [](msg::Endpoint* ep, std::uint8_t dst,
         const std::vector<std::pair<std::uint8_t, std::uint32_t>>* v)
          -> sim::Co<void> {
        for (const auto& [extra, word] : *v) {
          co_await ep->send_express(dst, extra, word);
        }
      }(&ep0, map.express(1), &sent));

  int received = 0;
  bool ok = true;
  machine.node(1).ap().run(
      [](msg::Endpoint* ep,
         const std::vector<std::pair<std::uint8_t, std::uint32_t>>* want,
         int* n, bool* ok_) -> sim::Co<void> {
        for (std::size_t i = 0; i < want->size(); ++i) {
          const msg::ExpressMessage m = co_await ep->recv_express();
          if (m.extra != (*want)[i].first ||
              m.word != (*want)[i].second || m.src_node != 0) {
            *ok_ = false;
          }
          ++*n;
        }
      }(&ep1, &sent, &received, &ok));

  test::drive(machine.kernel(), [&] { return received == kCount; });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpressProperty,
                         ::testing::Values(60, 61, 62, 63));

class MemoryPathProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(MemoryPathProperty, CachedAndUncachedPathsAgree) {
  sys::Machine machine(test::small_machine_params(2));
  auto& ap = machine.node(0).ap();
  sim::Rng rng(GetParam());
  std::vector<std::uint8_t> ref(2048, 0);
  constexpr mem::Addr kBase = 0x0008'0000;

  bool done = false;
  ap.run([](cpu::Processor* p, sim::Rng* rng, std::vector<std::uint8_t>* ref,
            bool* d) -> sim::Co<void> {
    for (int i = 0; i < 250; ++i) {
      const std::size_t len = 1 + rng->below(16);
      const std::size_t off = rng->below(ref->size() - len);
      const bool cached = rng->chance(0.5);
      if (rng->chance(0.5)) {
        std::vector<std::byte> data(len);
        for (auto& b : data) {
          b = static_cast<std::byte>(rng->below(256));
        }
        if (cached) {
          co_await p->store(kBase + off, data);
        } else {
          // Uncached stores must not race dirty cached lines: push them
          // out first (software-managed coherence, as on the real box).
          co_await p->flush_range(kBase + off, len);
          co_await p->store_uncached(kBase + off, data);
        }
        std::memcpy(ref->data() + off, data.data(), len);
      } else {
        std::vector<std::byte> got(len);
        if (cached) {
          co_await p->load(kBase + off, got);
        } else {
          co_await p->flush_range(kBase + off, len);
          co_await p->load_uncached(kBase + off, got);
        }
        for (std::size_t j = 0; j < len; ++j) {
          EXPECT_EQ(static_cast<std::uint8_t>(got[j]), (*ref)[off + j])
              << "off " << off + j << " iter " << i
              << (cached ? " cached" : " uncached");
        }
      }
    }
    *d = true;
  }(&ap, &rng, &ref, &done));
  test::drive(machine.kernel(), [&] { return done; },
              2000 * sim::kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPathProperty,
                         ::testing::Values(70, 71, 72));

class DirtyTrackingProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DirtyTrackingProperty, RandomWritePatternDiffsExactly) {
  auto p = test::small_machine_params(2);
  p.node.enable_scoma = false;
  sys::Machine machine(p);
  constexpr mem::Addr kBuf = niu::kScomaBase + 0x10000;
  constexpr std::uint32_t kLen = 2048;  // 64 lines
  constexpr mem::Addr kDst = 0x0060'0000;
  machine.node(0).niu().abiu().enable_write_tracking(kBuf, kLen);

  sim::Rng rng(GetParam());
  std::set<unsigned> dirty_lines;
  for (int i = 0; i < 12; ++i) {
    dirty_lines.insert(static_cast<unsigned>(rng.below(kLen / 32)));
  }

  bool wrote = false;
  machine.node(0).ap().run(
      [](cpu::Processor* ap, const std::set<unsigned>* lines,
         unsigned seed, bool* d) -> sim::Co<void> {
        for (const unsigned line : *lines) {
          co_await ap->store_scalar<std::uint32_t>(
              kBuf + static_cast<mem::Addr>(line) * 32, seed + line);
        }
        co_await ap->flush_range(kBuf, kLen);
        *d = true;
      }(&machine.node(0).ap(), &dirty_lines, GetParam(), &wrote));
  test::drive(machine.kernel(), [&] { return wrote; });

  // Every written line is marked, every untouched line is clean.
  auto& cls = machine.node(0).niu().cls();
  for (unsigned line = 0; line < kLen / 32; ++line) {
    const bool marked =
        (cls.peek(kBuf + line * 32) & niu::ABiu::kClsDirty) != 0;
    EXPECT_EQ(marked, dirty_lines.count(line) != 0) << "line " << line;
  }

  // A cls-mode diff ships exactly the dirty lines.
  niu::Command cmd;
  cmd.op = niu::CmdOp::kBlockDiffTx;
  cmd.diff_mode = 0;
  cmd.addr = kBuf;
  cmd.len = kLen;
  cmd.dest_node = 1;
  cmd.dest_addr = kDst;
  machine.node(0).niu().ctrl().post_command(0, cmd);
  test::drive(machine.kernel(), [&] {
    return machine.node(0).niu().ctrl().commands_idle() &&
           machine.node(1).niu().ctrl().commands_idle();
  });
  const sim::Tick settle = machine.kernel().now() + 50 * sim::kMicrosecond;
  sys::run_until(machine.kernel(),
                 [&] { return machine.kernel().now() >= settle; },
                 settle + sim::kMicrosecond);

  for (unsigned line = 0; line < kLen / 32; ++line) {
    const auto got =
        machine.node(1).dram().store().read_scalar<std::uint32_t>(
            kDst + line * 32);
    if (dirty_lines.count(line) != 0) {
      EXPECT_EQ(got, GetParam() + line) << "line " << line;
    } else {
      EXPECT_EQ(got, 0u) << "line " << line;
    }
    EXPECT_EQ(cls.peek(kBuf + line * 32) & niu::ABiu::kClsDirty, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirtyTrackingProperty,
                         ::testing::Values(80, 81, 82, 83));

}  // namespace
}  // namespace sv
