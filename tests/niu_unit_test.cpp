// NIU unit tests: descriptor encodings, queue pointer arithmetic, the
// remote-command wire codec, and address-window encodings.
#include <gtest/gtest.h>

#include <stdexcept>

#include "niu/command.hpp"
#include "niu/queues.hpp"
#include "niu/regs.hpp"
#include "msg/endpoint.hpp"
#include "sim/random.hpp"
#include "tests/test_util.hpp"

namespace sv::niu {
namespace {

TEST(MsgDescriptorTest, RoundTrip) {
  MsgDescriptor d;
  d.vdest = 0x1234;
  d.length = 88;
  d.flags = MsgDescriptor::kFlagTagOn | MsgDescriptor::kFlagTagOnLarge;
  d.aux = 0xCAFEBABE;
  std::byte raw[8];
  d.encode(raw);
  const MsgDescriptor e = MsgDescriptor::decode(raw);
  EXPECT_EQ(e.vdest, d.vdest);
  EXPECT_EQ(e.length, d.length);
  EXPECT_EQ(e.flags, d.flags);
  EXPECT_EQ(e.aux, d.aux);
  EXPECT_TRUE(e.tagon());
  EXPECT_EQ(e.tagon_bytes(), kTagOnLargeBytes);
  EXPECT_FALSE(e.raw());
}

TEST(MsgDescriptorTest, TagOnSizes) {
  MsgDescriptor d;
  d.flags = MsgDescriptor::kFlagTagOn;
  EXPECT_EQ(d.tagon_bytes(), kTagOnSmallBytes);
  d.flags |= MsgDescriptor::kFlagTagOnLarge;
  EXPECT_EQ(d.tagon_bytes(), kTagOnLargeBytes);
}

TEST(XlatEntryTest, RoundTripAndValidity) {
  XlatEntry e;
  e.phys_node = 7;
  e.logical_queue = 0x0F00;
  e.priority = net::kPriorityHigh;
  e.valid = true;
  std::byte raw[8];
  e.encode(raw);
  const XlatEntry f = XlatEntry::decode(raw);
  EXPECT_EQ(f.phys_node, 7);
  EXPECT_EQ(f.logical_queue, 0x0F00);
  EXPECT_EQ(f.priority, net::kPriorityHigh);
  EXPECT_TRUE(f.valid);

  std::byte zeros[8] = {};
  EXPECT_FALSE(XlatEntry::decode(zeros).valid);
}

TEST(RxDescriptorTest, RoundTrip) {
  RxDescriptor d;
  d.src_node = 31;
  d.length = 96;
  d.flags = 1;
  d.logical = 0x0102;
  std::byte raw[8];
  d.encode(raw);
  const RxDescriptor e = RxDescriptor::decode(raw);
  EXPECT_EQ(e.src_node, 31);
  EXPECT_EQ(e.length, 96);
  EXPECT_EQ(e.logical, 0x0102);
}

TEST(QueueStateTest, PointerArithmetic) {
  TxQueueState q;
  q.slots = 8;
  q.slot_bytes = 96;
  q.base = 0x1000;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  q.producer = 8;
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.occupancy(), 8);
  q.consumer = 3;
  EXPECT_EQ(q.occupancy(), 5);
  EXPECT_EQ(q.slot_addr(9), 0x1000u + 1 * 96);
}

TEST(QueueStateTest, WrapAroundAt16Bits) {
  RxQueueState q;
  q.slots = 4;
  q.producer = 2;
  q.consumer = 0xFFFE;  // free-running counters wrap
  EXPECT_EQ(q.occupancy(), 4);
  EXPECT_TRUE(q.full());
  q.consumer = 0xFFFF;
  EXPECT_EQ(q.occupancy(), 3);
}

TEST(RemoteCmdCodec, WriteApDramRoundTrip) {
  Command c;
  c.op = CmdOp::kWriteApDram;
  c.addr = 0x12345678;
  c.src_node = 3;
  c.set_cls = true;
  c.cls_bits = 2;
  c.chunk_notify = true;
  c.data = test::pattern_bytes(64);
  const auto wire = encode_remote(c);
  EXPECT_EQ(wire.size(), kRemoteCmdHeaderBytes + 64);
  const Command d = decode_remote(wire);
  EXPECT_EQ(d.op, CmdOp::kWriteApDram);
  EXPECT_EQ(d.addr, 0x12345678u);
  EXPECT_EQ(d.src_node, 3);
  EXPECT_TRUE(d.set_cls);
  EXPECT_TRUE(d.chunk_notify);
  EXPECT_EQ(d.cls_bits, 2);
  EXPECT_EQ(d.data, c.data);
  EXPECT_EQ(d.len, 64u);
}

TEST(RemoteCmdCodec, ClsStateCarriesLength) {
  Command c;
  c.op = CmdOp::kWriteClsState;
  c.addr = 0x8000'0000;
  c.len = 4096;
  c.cls_bits = 4;
  const Command d = decode_remote(encode_remote(c));
  EXPECT_EQ(d.addr, 0x8000'0000u);
  EXPECT_EQ(d.len, 4096u);
  EXPECT_EQ(d.cls_bits, 4);
}

TEST(RemoteCmdCodec, NotifyLocalCarriesQueueAndTag) {
  Command c;
  c.op = CmdOp::kNotifyLocal;
  c.queue = 0x0100;
  c.tag = 0x7777;
  c.data = test::pattern_bytes(4);
  const Command d = decode_remote(encode_remote(c));
  EXPECT_EQ(d.queue, 0x0100);
  EXPECT_EQ(d.tag, 0x7777u);
  EXPECT_EQ(d.data, c.data);
}

TEST(RemoteCmdCodec, RejectsUnroutableOps) {
  Command c;
  c.op = CmdOp::kBlockXfer;
  EXPECT_THROW(encode_remote(c), std::invalid_argument);
  c.op = CmdOp::kWriteApDram;
  c.data.resize(kRemoteCmdMaxData + 1);
  EXPECT_THROW(encode_remote(c), std::invalid_argument);
}

TEST(RemoteCmdCodec, RejectsMalformedWire) {
  std::vector<std::byte> junk(4);
  EXPECT_THROW(decode_remote(junk), std::invalid_argument);
  std::vector<std::byte> bad_op(kRemoteCmdHeaderBytes);
  bad_op[0] = static_cast<std::byte>(0xEE);
  EXPECT_THROW(decode_remote(bad_op), std::invalid_argument);
}

TEST(AddressWindows, ExpressTxEncoding) {
  const mem::Addr a = express_tx_addr(5, 0x42, 0xAB);
  EXPECT_EQ((a >> kExpressTxQueueShift) & 0xF, 5u);
  EXPECT_EQ((a >> kExpressTxDestShift) & 0xFF, 0x42u);
  EXPECT_EQ((a >> kExpressTxByteShift) & 0xFF, 0xABu);
  EXPECT_EQ(a % 4, 0u);  // word aligned: encodable in a store address
}

TEST(AddressWindows, PtrWindowEncoding) {
  EXPECT_EQ(ptr_window_addr(PtrKind::kTxProducer, 0), 0u);
  EXPECT_EQ(ptr_window_addr(PtrKind::kTxProducer, 5), 0x50u);
  EXPECT_EQ(ptr_window_addr(PtrKind::kRxConsumer, 5), 0x150u);
}

TEST(AddressWindows, ShadowsDoNotOverlap) {
  for (unsigned q = 0; q < kNumTxQueues; ++q) {
    EXPECT_LT(tx_consumer_shadow(q) + 4, kRxProducerShadowBase);
  }
  for (unsigned q = 0; q < kNumRxQueues; ++q) {
    EXPECT_LE(rx_producer_shadow(q) + 4, kShadowRegionBytes);
  }
}

TEST(AddressMapTest, SectionsArePowerOfTwoAligned) {
  for (std::size_t nodes : {2, 3, 4, 5, 8, 13, 16, 32}) {
    msg::AddressMap map{nodes};
    EXPECT_EQ(map.stride() & (map.stride() - 1), 0u);
    EXPECT_GE(map.stride(), nodes);
    for (sim::NodeId n = 0; n < nodes; ++n) {
      // The express OR-mask trick: section base OR node == section + node.
      EXPECT_EQ(map.express_section() | map.express(n),
                map.express_section() + n);
      EXPECT_NE(map.user0(n), map.dma(n));
      EXPECT_NE(map.dma(n), map.user1(n));
    }
    EXPECT_LE(map.table_entries(), 256u) << "fits an 8-bit express vdest";
  }
}

TEST(AddressMapTest, ExpressVdestIsEightBits) {
  // Beyond 256 nodes the 8-bit vdest cannot name the destination; node
  // 256 must be refused, not aliased onto node 0.
  const msg::AddressMap map{1024};
  EXPECT_EQ(map.express(0), 0u);
  EXPECT_EQ(map.express(255), 255u);
  EXPECT_EQ(map.express_section() | map.express(255),
            map.express_section() + 255);
  EXPECT_THROW((void)map.express(256), std::out_of_range);
  EXPECT_THROW((void)map.express(1023), std::out_of_range);
}

/// Property sweep: the codec round-trips random commands.
class RemoteCmdProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RemoteCmdProperty, RandomRoundTrip) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Command c;
    const int which = static_cast<int>(rng.below(3));
    c.op = which == 0   ? CmdOp::kWriteApDram
           : which == 1 ? CmdOp::kWriteClsState
                        : CmdOp::kNotifyLocal;
    c.addr = rng.next() & ((1ull << 40) - 1);
    c.src_node = static_cast<std::uint16_t>(rng.below(64));
    c.queue = static_cast<net::QueueId>(rng.below(0xF000));
    c.tag = static_cast<std::uint32_t>(rng.below(0x10000));
    c.set_cls = rng.chance(0.5);
    c.cls_bits = static_cast<std::uint8_t>(rng.below(16));
    c.chunk_notify = rng.chance(0.5);
    if (c.op == CmdOp::kWriteClsState) {
      c.len = static_cast<std::uint32_t>(rng.below(8192));
    } else {
      c.data = test::pattern_bytes(rng.below(kRemoteCmdMaxData + 1),
                                   static_cast<std::uint8_t>(i));
    }
    const Command d = decode_remote(encode_remote(c));
    EXPECT_EQ(d.op, c.op);
    EXPECT_EQ(d.addr, c.addr);
    EXPECT_EQ(d.set_cls, c.set_cls);
    EXPECT_EQ(d.cls_bits, c.cls_bits);
    EXPECT_EQ(d.chunk_notify, c.chunk_notify);
    EXPECT_EQ(d.data, c.data);
    if (c.op == CmdOp::kNotifyLocal) {
      EXPECT_EQ(d.queue, c.queue);
    }
    if (c.op == CmdOp::kWriteClsState) {
      EXPECT_EQ(d.len, c.len);
    }
    EXPECT_EQ(d.tag, c.tag & 0xFFFF);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemoteCmdProperty,
                         ::testing::Values(10, 20, 30, 40));

}  // namespace
}  // namespace sv::niu
