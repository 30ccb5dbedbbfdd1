// CTRL integration tests on a two-node machine: queue launch/receive,
// translation and protection, rx-queue caching, full-queue policies,
// express engines, the command machinery and the block engines.
#include <gtest/gtest.h>

#include <cstring>

#include "tests/test_util.hpp"

namespace sv {
namespace {

class CtrlTest : public ::testing::Test {
 protected:
  CtrlTest()
      : machine(test::small_machine_params(2, sys::Machine::NetKind::kIdeal)) {
  }

  niu::Ctrl& ctrl(sim::NodeId n) { return machine.node(n).niu().ctrl(); }

  /// Compose a Basic message directly in the tx queue's SRAM (backdoor) and
  /// launch it with a pointer update, as the aBIU would.
  void compose_and_launch(sim::NodeId n, unsigned txq,
                          const niu::MsgDescriptor& desc,
                          std::span<const std::byte> data) {
    auto& c = ctrl(n);
    auto& q = c.txq(txq);
    auto& sram = machine.node(n).niu().asram();
    const std::uint32_t slot = q.slot_addr(q.producer);
    std::byte hdr[8];
    desc.encode(hdr);
    sram.write(slot, hdr);
    if (!data.empty()) {
      sram.write(slot + niu::kBasicHeaderBytes, data);
    }
    c.tx_producer_update(txq, static_cast<std::uint16_t>(q.producer + 1));
  }

  /// Read the head message of an rx queue (backdoor) without consuming.
  std::pair<niu::RxDescriptor, std::vector<std::byte>> peek_rx(
      sim::NodeId n, unsigned rxq) {
    auto& q = ctrl(n).rxq(rxq);
    auto& sram = machine.node(n).niu().sram_of(q.bank);
    const std::uint32_t slot = q.slot_addr(q.consumer);
    std::byte hdr[8];
    sram.read(slot, hdr);
    auto desc = niu::RxDescriptor::decode(hdr);
    std::vector<std::byte> data(desc.length);
    if (desc.length > 0) {
      sram.read(slot + niu::kBasicHeaderBytes, data);
    }
    return {desc, data};
  }

  void drive_until(const std::function<bool()>& pred) {
    test::drive(machine.kernel(), pred);
  }

  sys::Machine machine;
};

TEST_F(CtrlTest, BasicMessageTravelsEndToEnd) {
  const auto map = machine.addr_map();
  auto payload = test::pattern_bytes(40);
  niu::MsgDescriptor d;
  d.vdest = map.user0(1);
  d.length = 40;
  compose_and_launch(0, sys::Node::kTxUser0, d, payload);

  // Wait for the rx producer shadow: it is written after the slot lands,
  // so everything below is stable once it reads 1.
  drive_until([&] {
    return machine.node(1).niu().asram().read_scalar<std::uint32_t>(
               niu::rx_producer_shadow(sys::Node::kRxUser0)) == 1;
  });
  auto [desc, data] = peek_rx(1, sys::Node::kRxUser0);
  EXPECT_EQ(desc.src_node, 0);
  EXPECT_EQ(desc.logical, msg::AddressMap::kUser0L);
  EXPECT_EQ(data, payload);
  EXPECT_EQ(ctrl(0).stats().msgs_launched.value(), 1u);
  // The tx consumer advanced and was shadowed into aSRAM.
  EXPECT_TRUE(ctrl(0).txq(sys::Node::kTxUser0).empty());
  EXPECT_EQ(machine.node(0).niu().asram().read_scalar<std::uint32_t>(
                niu::tx_consumer_shadow(sys::Node::kTxUser0)),
            1u);
  // The rx producer was shadowed on the receiver.
  EXPECT_EQ(machine.node(1).niu().asram().read_scalar<std::uint32_t>(
                niu::rx_producer_shadow(sys::Node::kRxUser0)),
            1u);
}

TEST_F(CtrlTest, TagOnAppendsSramData) {
  const auto map = machine.addr_map();
  auto inline_data = test::pattern_bytes(8, 1);
  auto tagon_data = test::pattern_bytes(niu::kTagOnSmallBytes, 2);
  machine.node(0).niu().asram().write(sys::Node::kStagingBase, tagon_data);

  niu::MsgDescriptor d;
  d.vdest = map.user0(1);
  d.length = 8;
  d.flags = niu::MsgDescriptor::kFlagTagOn;
  d.aux = sys::Node::kStagingBase;
  compose_and_launch(0, sys::Node::kTxUser0, d, inline_data);

  drive_until([&] { return !ctrl(1).rxq(sys::Node::kRxUser0).empty(); });
  auto [desc, data] = peek_rx(1, sys::Node::kRxUser0);
  ASSERT_EQ(data.size(), 8u + niu::kTagOnSmallBytes);
  EXPECT_TRUE(std::equal(data.begin(), data.begin() + 8,
                         inline_data.begin()));
  EXPECT_TRUE(std::equal(data.begin() + 8, data.end(), tagon_data.begin()));
}

TEST_F(CtrlTest, InvalidDestinationShutsQueueDown) {
  niu::MsgDescriptor d;
  d.vdest = 0xFF;  // beyond the table
  d.length = 0;
  compose_and_launch(0, sys::Node::kTxUser0, d, {});

  drive_until([&] { return ctrl(0).txq(sys::Node::kTxUser0).shutdown; });
  EXPECT_EQ(ctrl(0).stats().protection_violations.value(), 1u);
  EXPECT_NE(ctrl(0).interrupt_status() & niu::kIntrProtection, 0u);
  EXPECT_EQ(ctrl(0).read_reg(niu::SysReg::kShutdownStatus),
            1u << sys::Node::kTxUser0);

  // OS re-enables the queue; note the offending message is still at the
  // head and will shut it down again, so drain it first (backdoor).
  auto& q = ctrl(0).txq(sys::Node::kTxUser0);
  q.consumer = q.producer;
  ctrl(0).write_reg(niu::SysReg::kShutdownStatus,
                    1u << sys::Node::kTxUser0);
  EXPECT_FALSE(q.shutdown);
}

TEST_F(CtrlTest, RawMessageRequiresPermission) {
  // The user0 queue is not raw-allowed: a raw message kills it.
  niu::MsgDescriptor d;
  d.vdest = 1;
  d.flags = niu::MsgDescriptor::kFlagRaw;
  d.aux = msg::AddressMap::kUser0L;
  compose_and_launch(0, sys::Node::kTxUser0, d, {});
  drive_until([&] { return ctrl(0).txq(sys::Node::kTxUser0).shutdown; });

  // The trusted raw queue delivers it.
  niu::MsgDescriptor d2 = d;
  compose_and_launch(0, sys::Node::kTxRaw, d2, {});
  drive_until([&] { return !ctrl(1).rxq(sys::Node::kRxUser0).empty(); });
  EXPECT_FALSE(ctrl(0).txq(sys::Node::kTxRaw).shutdown);
}

TEST_F(CtrlTest, BogusProducerUpdateShutsQueueDown) {
  auto& c = ctrl(0);
  // Claiming more slots than exist is a protection violation.
  c.tx_producer_update(sys::Node::kTxUser0,
                       static_cast<std::uint16_t>(
                           sys::Node::kUserSlots + 5));
  EXPECT_TRUE(c.txq(sys::Node::kTxUser0).shutdown);
}

TEST_F(CtrlTest, RxCacheMissDivertsToMissQueue) {
  niu::MsgDescriptor d;
  d.vdest = 1;
  d.flags = niu::MsgDescriptor::kFlagRaw;
  d.aux = 0x0BAD;  // logical queue bound nowhere
  compose_and_launch(0, sys::Node::kTxRaw, d, test::pattern_bytes(16));

  drive_until([&] { return !ctrl(1).rxq(niu::kMissRxQueue).empty(); });
  auto [desc, data] = peek_rx(1, niu::kMissRxQueue);
  EXPECT_EQ(desc.logical, 0x0BAD);  // original logical id preserved
  EXPECT_EQ(ctrl(1).stats().rx_misses.value(), 1u);
  EXPECT_NE(ctrl(1).interrupt_status() & niu::kIntrRxMiss, 0u);
}

TEST_F(CtrlTest, FullQueuePolicyDrop) {
  auto& rq = ctrl(1).rxq(sys::Node::kRxUser1);
  rq.full_policy = niu::RxFullPolicy::kDrop;
  rq.slots = 2;

  const auto map = machine.addr_map();
  for (int i = 0; i < 4; ++i) {
    niu::MsgDescriptor d;
    d.vdest = map.user1(1);
    d.length = 4;
    compose_and_launch(0, sys::Node::kTxUser0, d, test::pattern_bytes(4));
  }
  drive_until([&] { return ctrl(0).stats().msgs_launched.value() == 4; });
  drive_until([&] { return ctrl(1).stats().rx_dropped.value() >= 1; });
  EXPECT_EQ(rq.occupancy(), 2);
}

TEST_F(CtrlTest, FullQueuePolicyDivertGoesToMissQueue) {
  auto& rq = ctrl(1).rxq(sys::Node::kRxUser1);
  rq.full_policy = niu::RxFullPolicy::kDivert;
  rq.slots = 2;

  const auto map = machine.addr_map();
  for (int i = 0; i < 3; ++i) {
    niu::MsgDescriptor d;
    d.vdest = map.user1(1);
    d.length = 4;
    compose_and_launch(0, sys::Node::kTxUser0, d, test::pattern_bytes(4));
  }
  drive_until([&] { return !ctrl(1).rxq(niu::kMissRxQueue).empty(); });
  auto [desc, data] = peek_rx(1, niu::kMissRxQueue);
  EXPECT_EQ(desc.logical, msg::AddressMap::kUser1L);
}

TEST_F(CtrlTest, FullQueuePolicyHoldBackpressuresAndResumes) {
  auto& rq = ctrl(1).rxq(sys::Node::kRxUser1);
  rq.full_policy = niu::RxFullPolicy::kHold;
  rq.slots = 2;

  const auto map = machine.addr_map();
  for (int i = 0; i < 3; ++i) {
    niu::MsgDescriptor d;
    d.vdest = map.user1(1);
    d.length = 4;
    compose_and_launch(0, sys::Node::kTxUser0, d, test::pattern_bytes(4));
  }
  drive_until([&] { return rq.full(); });
  // The third message is held; freeing a slot lets it land.
  const auto held_before = ctrl(1).stats().rx_held_ps.value();
  ctrl(1).rx_consumer_update(sys::Node::kRxUser1,
                             static_cast<std::uint16_t>(rq.consumer + 1));
  drive_until([&] { return ctrl(1).stats().rx_hits.value() == 3; });
  EXPECT_GE(ctrl(1).stats().rx_held_ps.value(), held_before);
}

TEST_F(CtrlTest, ExpressRoundTripThroughCtrl) {
  // Push an express entry on node 0's express queue; it must pop on node
  // 1's express rx queue, reformatted with the source node.
  std::byte entry[8] = {};
  entry[0] = std::byte{1};     // vdest = node 1 (express section ORed in)
  entry[1] = std::byte{0x5A};  // extra byte
  const std::uint32_t word = 0xA1B2C3D4;
  std::memcpy(entry + 4, &word, 4);
  std::uint64_t packed = 0;
  std::memcpy(&packed, entry, 8);

  sim::spawn(ctrl(0).express_tx_push(sys::Node::kTxExpress, packed));
  drive_until([&] { return !ctrl(1).rxq(sys::Node::kRxExpress).empty(); });

  const std::uint64_t rx = ctrl(1).express_rx_pop(sys::Node::kRxExpress);
  ASSERT_NE(rx, niu::Ctrl::kExpressEmpty);
  std::byte rx_bytes[8];
  std::memcpy(rx_bytes, &rx, 8);
  EXPECT_EQ(rx_bytes[0], std::byte{1});     // valid
  EXPECT_EQ(rx_bytes[1], std::byte{0});     // source node 0
  EXPECT_EQ(rx_bytes[2], std::byte{0x5A});  // extra byte
  std::uint32_t got = 0;
  std::memcpy(&got, rx_bytes + 4, 4);
  EXPECT_EQ(got, word);

  // Empty pop returns the canonical pattern.
  EXPECT_EQ(ctrl(1).express_rx_pop(sys::Node::kRxExpress),
            niu::Ctrl::kExpressEmpty);
}

TEST_F(CtrlTest, CommandWriteSramAndCopySram) {
  niu::Command wr;
  wr.op = niu::CmdOp::kWriteSram;
  wr.bank = niu::SramBank::kSSram;
  wr.sram_offset = sys::Node::kDiffCopyBase;
  wr.data = test::pattern_bytes(32);
  ctrl(0).post_command(0, wr);

  niu::Command cp;
  cp.op = niu::CmdOp::kCopySram;
  cp.bank = niu::SramBank::kSSram;
  cp.sram_offset = sys::Node::kDiffCopyBase;
  cp.bank2 = niu::SramBank::kASram;
  cp.sram_offset2 = 0x9000;
  cp.len = 32;
  ctrl(0).post_command(0, cp);

  drive_until([&] { return ctrl(0).commands_idle(); });
  std::vector<std::byte> got(32);
  machine.node(0).niu().asram().read(0x9000, got);
  EXPECT_EQ(got, wr.data);
}

TEST_F(CtrlTest, CommandCompletionNotifiesLocalQueue) {
  niu::Command wr;
  wr.op = niu::CmdOp::kWriteSram;
  wr.bank = niu::SramBank::kASram;
  wr.sram_offset = 0x9100;
  wr.data = test::pattern_bytes(8);
  wr.notify_queue = msg::AddressMap::kUser0L;
  wr.notify_tag = 0xBEEF;
  ctrl(0).post_command(0, wr);

  drive_until([&] {
    return !ctrl(0).rxq(sys::Node::kRxUser0).empty() &&
           (ctrl(0).interrupt_status() & niu::kIntrCmdComplete) != 0;
  });
  auto [desc, data] = peek_rx(0, sys::Node::kRxUser0);
  std::uint32_t tag = 0;
  std::memcpy(&tag, data.data(), 4);
  EXPECT_EQ(tag, 0xBEEFu);
}

TEST_F(CtrlTest, BlockReadMovesDramToSram) {
  auto data = test::pattern_bytes(256);
  machine.node(0).dram().store().write(0x4000, data);

  niu::Command cmd;
  cmd.op = niu::CmdOp::kBlockRead;
  cmd.addr = 0x4000;
  cmd.len = 256;
  cmd.bank = niu::SramBank::kASram;
  cmd.sram_offset = 0xA000;
  ctrl(0).post_command(0, cmd);

  drive_until([&] { return ctrl(0).commands_idle(); });
  std::vector<std::byte> got(256);
  machine.node(0).niu().asram().read(0xA000, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(ctrl(0).stats().block_reads.value(), 1u);
}

TEST_F(CtrlTest, BlockTxMovesSramToRemoteDram) {
  auto data = test::pattern_bytes(256);
  machine.node(0).niu().asram().write(0xA000, data);

  niu::Command cmd;
  cmd.op = niu::CmdOp::kBlockTx;
  cmd.bank = niu::SramBank::kASram;
  cmd.sram_offset = 0xA000;
  cmd.len = 256;
  cmd.dest_node = 1;
  cmd.dest_addr = 0x5000;
  cmd.remote_notify = true;
  cmd.remote_notify_queue = msg::AddressMap::kUser0L;
  cmd.remote_notify_tag = 7;
  ctrl(0).post_command(0, cmd);

  drive_until([&] { return !ctrl(1).rxq(sys::Node::kRxUser0).empty(); });
  std::vector<std::byte> got(256);
  machine.node(1).dram().store().read(0x5000, got);
  EXPECT_EQ(got, data);
}

TEST_F(CtrlTest, BlockXferChainsReadAndTx) {
  auto data = test::pattern_bytes(4096);
  machine.node(0).dram().store().write(0x8000, data);

  niu::Command cmd;
  cmd.op = niu::CmdOp::kBlockXfer;
  cmd.addr = 0x8000;
  cmd.dest_addr = 0x6000;
  cmd.len = 4096;
  cmd.bank = niu::SramBank::kSSram;
  cmd.sram_offset = fw::DmaEngine::kStaging;
  cmd.dest_node = 1;
  ctrl(0).post_command(0, cmd);

  drive_until([&] {
    return ctrl(0).commands_idle() && ctrl(1).commands_idle() &&
           machine.node(1).dram().store().read_scalar<std::uint8_t>(
               0x6000 + 4095) ==
               static_cast<std::uint8_t>(data[4095]);
  });
  std::vector<std::byte> got(4096);
  machine.node(1).dram().store().read(0x6000, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(ctrl(0).stats().block_xfers.value(), 1u);
}

TEST_F(CtrlTest, FenceOrdersCommandAfterBlockOp) {
  auto data = test::pattern_bytes(1024);
  machine.node(0).dram().store().write(0x8000, data);

  niu::Command blk;
  blk.op = niu::CmdOp::kBlockRead;
  blk.addr = 0x8000;
  blk.len = 1024;
  blk.bank = niu::SramBank::kASram;
  blk.sram_offset = 0xB000;
  ctrl(0).post_command(0, blk);

  // A fenced copy of the staged data must see the complete block.
  niu::Command cp;
  cp.op = niu::CmdOp::kCopySram;
  cp.fence = true;
  cp.bank = niu::SramBank::kASram;
  cp.sram_offset = 0xB000;
  cp.bank2 = niu::SramBank::kASram;
  cp.sram_offset2 = 0xC000;
  cp.len = 1024;
  ctrl(0).post_command(0, cp);

  drive_until([&] { return ctrl(0).commands_idle(); });
  std::vector<std::byte> got(1024);
  machine.node(0).niu().asram().read(0xC000, got);
  EXPECT_EQ(got, data);
}

TEST_F(CtrlTest, TxPriorityClassesDrainHighFirst) {
  // Reconfigure: user1 queue to class 3, user0 stays at 1. Fill both while
  // the TxU is busy, then check completion order by timestamps.
  ctrl(0).write_reg(niu::SysReg::kTxPriority,
                    (3ull << (2 * sys::Node::kTxUser1)) |
                        (1ull << (2 * sys::Node::kTxUser0)));
  EXPECT_EQ(ctrl(0).txq(sys::Node::kTxUser1).priority_class, 3);

  const auto map = machine.addr_map();
  // Queue several messages on both queues back to back.
  for (int i = 0; i < 4; ++i) {
    niu::MsgDescriptor d;
    d.vdest = map.user0(1);
    d.length = 64;
    compose_and_launch(0, sys::Node::kTxUser0, d, test::pattern_bytes(64));
    niu::MsgDescriptor d1;
    d1.vdest = map.user1(1);
    d1.length = 64;
    compose_and_launch(0, sys::Node::kTxUser1, d1, test::pattern_bytes(64));
  }
  drive_until([&] {
    return ctrl(0).txq(sys::Node::kTxUser0).empty() &&
           ctrl(0).txq(sys::Node::kTxUser1).empty();
  });
  // High class must have fully drained before the low class finished:
  // count arrivals at the receiver per logical queue prefix.
  auto& r1 = ctrl(1).rxq(sys::Node::kRxUser1);
  auto& r0 = ctrl(1).rxq(sys::Node::kRxUser0);
  drive_until([&] { return r1.occupancy() == 4 && r0.occupancy() == 4; });
  SUCCEED();
}

TEST_F(CtrlTest, ApCannotReachSystemRegisters) {
  // The aBIU decodes a system-register window in the aP's NIU space, but
  // the registers are the sP's: an aP store there changes nothing and an
  // aP load reads zero.
  const mem::Addr reg = niu::kNiuBase + niu::kSysRegWindowOffset +
                        8 * static_cast<mem::Addr>(niu::SysReg::kTxPriority);
  const std::uint64_t before = ctrl(0).read_reg(niu::SysReg::kTxPriority);
  ASSERT_NE(before, ~std::uint64_t{0});
  std::uint64_t loaded = 1;
  test::run_co(machine.kernel(),
               [](cpu::Processor* ap, mem::Addr a,
                  std::uint64_t* out) -> sim::Co<void> {
                 co_await ap->store_scalar(a, ~std::uint64_t{0},
                                           /*cached=*/false);
                 *out = co_await ap->load_scalar<std::uint64_t>(
                     a, /*cached=*/false);
               }(&machine.node(0).ap(), reg, &loaded));
  EXPECT_EQ(ctrl(0).read_reg(niu::SysReg::kTxPriority), before);
  EXPECT_EQ(loaded, 0u);
}

}  // namespace
}  // namespace sv
