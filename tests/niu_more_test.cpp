// Additional NIU behaviour tests: queue-pointer wrap-around, translation
// mask semantics, per-queue translation disable, TagOn-from-sSRAM,
// interrupt enable masking, system-register commands, and remote
// cls-state commands over the network.
#include <gtest/gtest.h>

#include <cstring>

#include "tests/test_util.hpp"

namespace sv {
namespace {

class NiuMoreTest : public ::testing::Test {
 protected:
  NiuMoreTest()
      : machine(test::small_machine_params(2, sys::Machine::NetKind::kIdeal)) {
  }

  niu::Ctrl& ctrl(sim::NodeId n) { return machine.node(n).niu().ctrl(); }

  void compose(sim::NodeId n, unsigned txq, const niu::MsgDescriptor& desc,
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

  void drive_until(const std::function<bool()>& pred) {
    test::drive(machine.kernel(), pred);
  }

  sys::Machine machine;
};

TEST_F(NiuMoreTest, QueuePointersWrapPast64K) {
  // Pre-age the queue counters near the 16-bit boundary and run messages
  // across the wrap (free-running counter semantics).
  auto& tq = ctrl(0).txq(sys::Node::kTxUser0);
  auto& rq = ctrl(1).rxq(sys::Node::kRxUser0);
  tq.producer = tq.consumer = 0xFFFE;
  rq.producer = rq.consumer = 0xFFFD;

  const auto map = machine.addr_map();
  for (int i = 0; i < 6; ++i) {
    niu::MsgDescriptor d;
    d.vdest = map.user0(1);
    d.length = 4;
    std::uint32_t v = 0x1000 + i;
    std::byte b[4];
    std::memcpy(b, &v, 4);
    compose(0, sys::Node::kTxUser0, d, b);
  }
  drive_until([&] { return rq.occupancy() == 6; });
  // Consume across the receiver's wrap as well.
  for (int i = 0; i < 6; ++i) {
    auto& sram = machine.node(1).niu().asram();
    const std::uint32_t slot = rq.slot_addr(rq.consumer);
    std::byte buf[12];
    sram.read(slot, buf);
    std::uint32_t v = 0;
    std::memcpy(&v, buf + 8, 4);
    EXPECT_EQ(v, 0x1000u + i);
    ctrl(1).rx_consumer_update(
        sys::Node::kRxUser0, static_cast<std::uint16_t>(rq.consumer + 1));
  }
  EXPECT_TRUE(rq.empty());
  EXPECT_LT(rq.consumer, 0x10u);  // wrapped
}

TEST_F(NiuMoreTest, TranslationMasksSelectTableSection) {
  // Configure a queue whose AND/OR masks force every message into the
  // express section of the table regardless of the vdest's high bits —
  // the paper's "make routing and destination queue selection easier".
  auto& tq = ctrl(0).txq(sys::Node::kTxUser0);
  const auto map = machine.addr_map();
  tq.and_mask = 0x0001;  // keep only the node bit
  tq.or_mask = map.express_section();

  niu::MsgDescriptor d;
  d.vdest = 0xABC1;  // garbage high bits; AND keeps 1, OR adds the section
  d.length = 8;
  compose(0, sys::Node::kTxUser0, d, test::pattern_bytes(8));
  drive_until(
      [&] { return !ctrl(1).rxq(sys::Node::kRxExpress).empty(); });
}

TEST_F(NiuMoreTest, PerQueueTranslationDisable) {
  // With translate disabled on a trusted queue, the descriptor's fields
  // address the physical node and logical queue directly ("The OS or
  // firmware can disable translation on a per-queue basis").
  auto& tq = ctrl(0).txq(sys::Node::kTxUser0);
  tq.translate = false;
  tq.raw_allowed = true;  // untranslated queues are trusted

  niu::MsgDescriptor d;
  d.vdest = 1;  // physical node
  d.flags = niu::MsgDescriptor::kFlagRaw;
  d.aux = msg::AddressMap::kUser1L;
  d.length = 4;
  compose(0, sys::Node::kTxUser0, d, test::pattern_bytes(4));
  drive_until([&] { return !ctrl(1).rxq(sys::Node::kRxUser1).empty(); });
}

TEST_F(NiuMoreTest, TagOnFromSSram) {
  auto tag_data = test::pattern_bytes(niu::kTagOnSmallBytes, 42);
  machine.node(0).niu().ssram().write(sys::Node::kDiffCopyBase, tag_data);

  niu::MsgDescriptor d;
  d.vdest = machine.addr_map().user0(1);
  d.length = 0;
  d.flags = niu::MsgDescriptor::kFlagTagOn |
            niu::MsgDescriptor::kFlagTagOnSSram;
  d.aux = sys::Node::kDiffCopyBase;
  compose(0, sys::Node::kTxUser0, d, {});

  drive_until([&] { return !ctrl(1).rxq(sys::Node::kRxUser0).empty(); });
  auto& rq = ctrl(1).rxq(sys::Node::kRxUser0);
  auto& sram = machine.node(1).niu().asram();
  std::byte hdr[8];
  sram.read(rq.slot_addr(rq.consumer), hdr);
  const auto desc = niu::RxDescriptor::decode(hdr);
  ASSERT_EQ(desc.length, niu::kTagOnSmallBytes);
  std::vector<std::byte> got(desc.length);
  sram.read(rq.slot_addr(rq.consumer) + 8, got);
  EXPECT_EQ(got, tag_data);
}

TEST_F(NiuMoreTest, InterruptEnableMasksSignal) {
  auto& c = ctrl(1);
  c.write_reg(niu::SysReg::kInterruptEnable, 0);  // mask everything

  int pulses = 0;
  sim::spawn([](niu::Ctrl* ctrl_, int* n) -> sim::Co<void> {
    for (;;) {
      co_await ctrl_->sp_interrupt();
      ++*n;
    }
  }(&c, &pulses));

  c.rxq(sys::Node::kRxUser0).interrupt_on_arrival = true;
  niu::MsgDescriptor d;
  d.vdest = machine.addr_map().user0(1);
  d.length = 4;
  compose(0, sys::Node::kTxUser0, d, test::pattern_bytes(4));
  drive_until([&] {
    return (c.interrupt_status() & niu::kIntrRxArrival) != 0;
  });

  // Status latched, signal suppressed.
  machine.kernel().run_until(machine.kernel().now() +
                             20 * sim::kMicrosecond);
  EXPECT_EQ(pulses, 0);

  // Unmask and send again: now the signal fires.
  c.write_reg(niu::SysReg::kInterruptEnable, ~0ull);
  compose(0, sys::Node::kTxUser0, d, test::pattern_bytes(4));
  drive_until([&] { return pulses > 0; });

  // Write-one-to-clear on the status register.
  c.write_reg(niu::SysReg::kInterruptStatus, niu::kIntrRxArrival);
  EXPECT_EQ(c.interrupt_status() & niu::kIntrRxArrival, 0u);
}

TEST_F(NiuMoreTest, WriteRegCommandReconfiguresPriorities) {
  niu::Command cmd;
  cmd.op = niu::CmdOp::kWriteReg;
  cmd.reg = static_cast<std::uint32_t>(niu::SysReg::kTxPriority);
  cmd.value = 3ull << (2 * sys::Node::kTxUser1);
  ctrl(0).post_command(0, cmd);
  drive_until([&] { return ctrl(0).commands_idle(); });
  EXPECT_EQ(ctrl(0).txq(sys::Node::kTxUser1).priority_class, 3);
  EXPECT_EQ(ctrl(0).txq(sys::Node::kTxUser0).priority_class, 0);
}

TEST_F(NiuMoreTest, RemoteClsStateCommandOverNetwork) {
  // Node 0 closes a cls range on node 1 via the remote command queue —
  // the remote half of the approach-4 preparation.
  const auto untouched_before =
      machine.node(1).niu().cls().peek(niu::kScomaBase + 0x9080);
  niu::Command cls_cmd;
  cls_cmd.op = niu::CmdOp::kWriteClsState;
  cls_cmd.addr = niu::kScomaBase + 0x9000;
  cls_cmd.len = 128;
  cls_cmd.cls_bits = 4;

  sim::spawn([](sys::Machine* m, niu::Command c) -> sim::Co<void> {
    net::Packet pkt;
    pkt.src = 0;
    pkt.dest = 1;
    pkt.dest_queue = net::kRemoteCmdQueue;
    pkt.payload = niu::encode_remote(c);
    co_await m->node(0).niu().ctrl().inject(std::move(pkt));
  }(&machine, cls_cmd));

  drive_until([&] {
    return machine.node(1).niu().cls().peek(niu::kScomaBase + 0x9000) == 4;
  });
  EXPECT_EQ(machine.node(1).niu().cls().peek(niu::kScomaBase + 0x9060), 4);
  // Lines beyond the range keep their prior (S-COMA init) state.
  EXPECT_EQ(machine.node(1).niu().cls().peek(niu::kScomaBase + 0x9080),
            untouched_before);
}

TEST_F(NiuMoreTest, ExpressQueueFillsAndRecovers) {
  // Fill the express rx queue completely (no consumer), verify the tail
  // behaviour, then drain and confirm recovery.
  auto& rx = ctrl(1).rxq(sys::Node::kRxExpress);
  const unsigned capacity = rx.slots;

  sim::spawn([](sys::Machine* m, unsigned n) -> sim::Co<void> {
    for (unsigned i = 0; i < n + 10; ++i) {
      std::byte entry[8] = {};
      entry[0] = std::byte{1};  // vdest: node 1 (express section ORed in)
      std::uint32_t w = i;
      std::memcpy(entry + 4, &w, 4);
      std::uint64_t packed = 0;
      std::memcpy(&packed, entry, 8);
      co_await m->node(0).niu().ctrl().express_tx_push(
          sys::Node::kTxExpress, packed);
    }
  }(&machine, capacity));

  drive_until([&] { return rx.full(); });
  // Drain everything; the overflow went to the miss queue (kDivert).
  unsigned drained = 0;
  while (true) {
    const std::uint64_t e = ctrl(1).express_rx_pop(sys::Node::kRxExpress);
    if (e == niu::Ctrl::kExpressEmpty) {
      if (rx.empty()) {
        break;
      }
      continue;
    }
    ++drained;
    machine.kernel().run_until(machine.kernel().now() + 1000);
  }
  EXPECT_GE(drained, capacity);
  machine.kernel().run_until(machine.kernel().now() +
                             50 * sim::kMicrosecond);
  EXPECT_GE(ctrl(1).stats().express_popped.value(), capacity);
}

}  // namespace
}  // namespace sv
