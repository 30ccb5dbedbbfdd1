// Tests for the paper's "Extending Default Mechanisms" features:
//   - aBIU hardware miss send (S-COMA misses bypass the local sP),
//   - clsSRAM write tracking + the diff-ing transmit engine
//     (update-based shared memory support).
#include <gtest/gtest.h>

#include <cstring>

#include "shm/scoma_region.hpp"
#include "sim/random.hpp"
#include "tests/test_util.hpp"
#include "xfer/approaches.hpp"

namespace sv {
namespace {

class HwMissSendTest : public ::testing::Test {
 protected:
  HwMissSendTest() : machine(test::small_machine_params(2)) {
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      machine.node(n).scoma()->enable_hw_miss_send();
    }
  }

  void run_on_ap(sim::NodeId n, sim::Co<void> co) {
    bool done = false;
    machine.node(n).ap().run(
        [](sim::Co<void> c, bool* d) -> sim::Co<void> {
          co_await std::move(c);
          *d = true;
        }(std::move(co), &done));
    test::drive(machine.kernel(), [&] { return done; });
  }

  sys::Machine machine;
};

TEST_F(HwMissSendTest, RemoteReadMissStillCoherent) {
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());

  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint64_t>(0x100, 0xABCD0123FEDC4567ull);
    co_await r->flush(0x100, 8);
  }(&sc0));
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint64_t>(0x100);
    EXPECT_EQ(v, 0xABCD0123FEDC4567ull);
  }(&sc1));
  // The requester's client loop never ran: the aBIU sent the request.
  EXPECT_TRUE(machine.node(1).niu().abiu().hw_miss_send_enabled());
  EXPECT_EQ(machine.node(1).niu().sbiu().scoma_ops().size(), 0u);
}

TEST_F(HwMissSendTest, WriteMissAndInvalidateStillWork) {
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());

  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x200, 1);
    co_await r->flush(0x200, 4);
  }(&sc0));
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    (void)co_await r->load<std::uint32_t>(0x200);
    co_await r->store<std::uint32_t>(0x200, 2);
  }(&sc1));
  EXPECT_EQ(machine.node(0).niu().cls().peek(niu::kScomaBase + 0x200),
            niu::ABiu::kClsInvalid);
  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint32_t>(0x200);
    EXPECT_EQ(v, 2u);
  }(&sc0));
}

TEST_F(HwMissSendTest, MissPathSkipsRequesterSp) {
  // Compare the requester's sP busy time for one remote miss against the
  // firmware-mediated path on a second machine.
  shm::ScomaRegion sc1(machine.node(1).ap());
  const sim::Tick sp_before = machine.node(1).sp().busy();
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    (void)co_await r->load<std::uint32_t>(0x300);
  }(&sc1));
  const sim::Tick hw_sp = machine.node(1).sp().busy() - sp_before;

  sys::Machine fw_machine(test::small_machine_params(2));
  shm::ScomaRegion fsc1(fw_machine.node(1).ap());
  bool done = false;
  const sim::Tick fw_before = fw_machine.node(1).sp().busy();
  fw_machine.node(1).ap().run(
      [](shm::ScomaRegion* r, bool* d) -> sim::Co<void> {
        (void)co_await r->load<std::uint32_t>(0x300);
        *d = true;
      }(&fsc1, &done));
  test::drive(fw_machine.kernel(), [&] { return done; });
  const sim::Tick fw_sp = fw_machine.node(1).sp().busy() - fw_before;

  EXPECT_LT(hw_sp, fw_sp);
}

class HwMissSendProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(HwMissSendProperty, RandomTrafficCoherent) {
  auto machine = sys::Machine(test::small_machine_params(2));
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).scoma()->enable_hw_miss_send();
  }
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());
  sim::Rng rng(GetParam());
  std::vector<std::uint32_t> ref(16, 0);

  bool done = false;
  machine.node(0).ap().run(
      [](shm::ScomaRegion* a, shm::ScomaRegion* b, sim::Rng* rng,
         std::vector<std::uint32_t>* ref, bool* d) -> sim::Co<void> {
        for (int i = 0; i < 100; ++i) {
          shm::ScomaRegion* r = rng->chance(0.5) ? a : b;
          const std::size_t word = rng->below(16);
          const mem::Addr off = 0x1000 + word * 64;
          if (rng->chance(0.5)) {
            const auto v = static_cast<std::uint32_t>(rng->next());
            co_await r->store<std::uint32_t>(off, v);
            (*ref)[word] = v;
          } else {
            const auto v = co_await r->load<std::uint32_t>(off);
            EXPECT_EQ(v, (*ref)[word]) << "word " << word << " iter " << i;
          }
        }
        *d = true;
      }(&sc0, &sc1, &rng, &ref, &done));
  test::drive(machine.kernel(), [&] { return done; },
              2000 * sim::kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwMissSendProperty,
                         ::testing::Values(7, 17, 27));

// --- Diff-ing hardware -----------------------------------------------------

class DiffTest : public ::testing::Test {
 protected:
  DiffTest() : machine(make_params()) {
    // The tracked buffer lives in the cls-covered region with the S-COMA
    // protocol disabled (the buffer is node-private; only the dirty bits
    // of clsSRAM are in play).
    machine.node(0).niu().abiu().enable_write_tracking(kBuf, kLen);
  }

  static sys::Machine::Params make_params() {
    auto p = test::small_machine_params(2);
    p.node.enable_scoma = false;
    return p;
  }

  void drive_idle() {
    test::drive(machine.kernel(), [&] {
      return machine.node(0).niu().ctrl().commands_idle() &&
             machine.node(1).niu().ctrl().commands_idle();
    });
    // Let trailing remote writes land.
    const sim::Tick settle = machine.kernel().now() + 50 * sim::kMicrosecond;
    sys::run_until(machine.kernel(),
                   [&] { return machine.kernel().now() >= settle; },
                   settle + sim::kMicrosecond);
  }

  static constexpr mem::Addr kBuf = niu::kScomaBase + 0x10000;
  static constexpr std::uint32_t kLen = 1024;  // 32 lines
  static constexpr mem::Addr kDst = 0x0060'0000;

  sys::Machine machine;
};

TEST_F(DiffTest, WriteTrackingMarksExactlyTheWrittenLines) {
  bool done = false;
  machine.node(0).ap().run(
      [](cpu::Processor* ap, bool* d) -> sim::Co<void> {
        co_await ap->store_scalar<std::uint32_t>(kBuf + 0 * 32, 1);
        co_await ap->store_scalar<std::uint32_t>(kBuf + 5 * 32, 2);
        co_await ap->store_scalar<std::uint32_t>(kBuf + 31 * 32, 3);
        // Flush so the writebacks surface (and mark) on the bus.
        co_await ap->flush_range(kBuf, kLen);
        *d = true;
      }(&machine.node(0).ap(), &done));
  test::drive(machine.kernel(), [&] { return done; });

  auto& cls = machine.node(0).niu().cls();
  for (std::uint32_t i = 0; i < 32; ++i) {
    const bool dirty = (cls.peek(kBuf + i * 32) & niu::ABiu::kClsDirty) != 0;
    const bool expect = i == 0 || i == 5 || i == 31;
    EXPECT_EQ(dirty, expect) << "line " << i;
  }
}

TEST_F(DiffTest, ClsModeDiffSendsOnlyDirtyLines) {
  // Populate the buffer (backdoor) and mark three lines dirty by writing.
  auto base_data = test::pattern_bytes(kLen, 20);
  machine.node(0).dram().store().write(kBuf, base_data);
  machine.node(1).dram().store().fill(kDst, kLen, std::byte{0});

  bool done = false;
  machine.node(0).ap().run(
      [](cpu::Processor* ap, bool* d) -> sim::Co<void> {
        co_await ap->store_scalar<std::uint32_t>(kBuf + 3 * 32, 0x31313131);
        co_await ap->store_scalar<std::uint32_t>(kBuf + 9 * 32, 0x32323232);
        co_await ap->flush_range(kBuf, kLen);
        *d = true;
      }(&machine.node(0).ap(), &done));
  test::drive(machine.kernel(), [&] { return done; });

  const auto sent_before = machine.network().packets_delivered();
  niu::Command cmd;
  cmd.op = niu::CmdOp::kBlockDiffTx;
  cmd.diff_mode = 0;
  cmd.addr = kBuf;
  cmd.len = kLen;
  cmd.dest_node = 1;
  cmd.dest_addr = kDst;
  machine.node(0).niu().ctrl().post_command(0, cmd);
  drive_idle();

  // Only the dirty lines landed at the destination.
  auto& dst = machine.node(1).dram().store();
  EXPECT_EQ(dst.read_scalar<std::uint32_t>(kDst + 3 * 32), 0x31313131u);
  EXPECT_EQ(dst.read_scalar<std::uint32_t>(kDst + 9 * 32), 0x32323232u);
  EXPECT_EQ(dst.read_scalar<std::uint32_t>(kDst + 4 * 32), 0u);
  EXPECT_EQ(dst.read_scalar<std::uint32_t>(kDst + 0 * 32), 0u);

  // Dirty bits cleared; a second diff sends nothing.
  auto& cls = machine.node(0).niu().cls();
  EXPECT_EQ(cls.peek(kBuf + 3 * 32) & niu::ABiu::kClsDirty, 0);
  const auto sent_mid = machine.network().packets_delivered();
  EXPECT_GE(sent_mid - sent_before, 2u);
  machine.node(0).niu().ctrl().post_command(0, cmd);
  drive_idle();
  EXPECT_EQ(machine.network().packets_delivered(), sent_mid);
}

TEST_F(DiffTest, ValueModeDiffAgainstStagedOldCopy) {
  // Old copy staged in sSRAM; DRAM region differs in two lines.
  auto old_data = test::pattern_bytes(kLen, 30);
  machine.node(0).dram().store().write(0x0070'0000, old_data);
  machine.node(0).niu().ssram().write(sys::Node::kDiffCopyBase, old_data);
  machine.node(1).dram().store().fill(kDst, kLen, std::byte{0});

  auto new_data = old_data;
  new_data[7 * 32 + 4] = std::byte{0xEE};
  new_data[20 * 32] = std::byte{0xDD};
  machine.node(0).dram().store().write(0x0070'0000, new_data);

  niu::Command cmd;
  cmd.op = niu::CmdOp::kBlockDiffTx;
  cmd.diff_mode = 1;
  cmd.addr = 0x0070'0000;
  cmd.len = kLen;
  cmd.bank = niu::SramBank::kSSram;
  cmd.sram_offset = sys::Node::kDiffCopyBase;
  cmd.dest_node = 1;
  cmd.dest_addr = kDst;
  cmd.remote_notify = true;
  cmd.remote_notify_queue = msg::AddressMap::kUser0L;
  cmd.remote_notify_tag = 0x99;
  machine.node(0).niu().ctrl().post_command(0, cmd);
  drive_idle();

  auto& dst = machine.node(1).dram().store();
  std::vector<std::byte> line(32);
  dst.read(kDst + 7 * 32, line);
  EXPECT_EQ(line, std::vector<std::byte>(new_data.begin() + 7 * 32,
                                         new_data.begin() + 8 * 32));
  EXPECT_EQ(dst.read_scalar<std::uint8_t>(kDst + 6 * 32), 0u);

  // The old copy was refreshed: a re-diff sends nothing new.
  const auto sent = machine.network().packets_delivered();
  niu::Command again = cmd;
  again.remote_notify = false;
  machine.node(0).niu().ctrl().post_command(0, again);
  drive_idle();
  EXPECT_EQ(machine.network().packets_delivered(), sent);

  // The completion notification arrived at the receiver's user queue.
  EXPECT_FALSE(
      machine.node(1).niu().ctrl().rxq(sys::Node::kRxUser0).empty());
}

}  // namespace
}  // namespace sv
