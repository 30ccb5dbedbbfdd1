// Firmware-service tests: rx-queue-cache miss service with DRAM-resident
// queues, reflective memory (firmware and all-hardware modes), and the
// approach-4 chunk opener.
#include <gtest/gtest.h>

#include <cstring>

#include "msg/dram_queue.hpp"
#include "tests/test_util.hpp"
#include "xfer/approaches.hpp"

namespace sv {
namespace {

class FwTest : public ::testing::Test {
 protected:
  FwTest() : machine(test::small_machine_params(2)) {
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      eps.push_back(std::make_unique<msg::Endpoint>(
          machine.node(n).ap(), machine.node(n).endpoint_config()));
    }
  }

  void drive_until(const std::function<bool()>& pred) {
    test::drive(machine.kernel(), pred);
  }

  sys::Machine machine;
  std::vector<std::unique_ptr<msg::Endpoint>> eps;
};

TEST_F(FwTest, MissServiceSpillsToDramQueue) {
  // Register a DRAM-resident queue for an unbound logical id on node 1.
  constexpr net::QueueId kSpill = 0x0777;
  fw::DramQueueDesc desc;
  desc.base = 0x50000;
  desc.slots = 16;
  machine.node(1).miss_service().register_queue(kSpill, desc);

  auto payload = test::pattern_bytes(24, 9);
  machine.node(0).ap().run(eps[0]->send_raw(1, kSpill, payload));

  bool got = false;
  msg::DramQueue dq(machine.node(1).ap(), desc);
  machine.node(1).ap().run(
      [](msg::DramQueue* q, const std::vector<std::byte>* want,
         bool* done) -> sim::Co<void> {
        msg::Message m = co_await q->recv();
        EXPECT_EQ(m.logical, 0x0777);
        EXPECT_EQ(m.src_node, 0);
        EXPECT_EQ(m.data, *want);
        *done = true;
      }(&dq, &payload, &got));
  drive_until([&] { return got; });
  EXPECT_EQ(machine.node(1).miss_service().serviced().value(), 1u);
}

TEST_F(FwTest, MissServiceHandlesBurstAcrossWrap) {
  constexpr net::QueueId kSpill = 0x0778;
  fw::DramQueueDesc desc;
  desc.base = 0x58000;
  desc.slots = 4;  // tiny: forces wrap handling
  machine.node(1).miss_service().register_queue(kSpill, desc);

  constexpr int kCount = 10;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          std::byte b[4];
          std::memcpy(b, &i, 4);
          co_await ep->send_raw(1, kSpill, b);
        }
      }(eps[0].get()));

  int received = 0;
  bool ordered = true;
  msg::DramQueue dq(machine.node(1).ap(), desc);
  machine.node(1).ap().run(
      [](msg::DramQueue* q, int* n, bool* ok) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          msg::Message m = co_await q->recv();
          std::uint32_t seq = 0;
          std::memcpy(&seq, m.data.data(), 4);
          if (seq != i) {
            *ok = false;
          }
          ++*n;
        }
      }(&dq, &received, &ordered));
  drive_until([&] { return received == kCount; });
  EXPECT_TRUE(ordered);
  EXPECT_EQ(machine.node(1).miss_service().overflowed().value(), 0u);
}

TEST_F(FwTest, MissServiceCountsUnregisteredQueues) {
  const auto payload = test::pattern_bytes(8);  // outlives the lazy send
  machine.node(0).ap().run(eps[0]->send_raw(1, 0x0BBB, payload));
  drive_until([&] {
    return machine.node(1).miss_service().unregistered().value() == 1;
  });
}

TEST_F(FwTest, ReflectiveMemoryFirmwareMode) {
  // Install a firmware reflective engine on node 0: writes to a local DRAM
  // window propagate to node 1.
  fw::ReflectiveEngine::Params rp;
  rp.local_base = 0x60000;
  rp.size = 4096;
  rp.peers.push_back({1, 0x70000});
  fw::ReflectiveEngine refl(machine.kernel(), "n0.fw.refl",
                            machine.node(0).sp(),
                            machine.node(0).niu().sbiu(), rp);
  refl.start();

  machine.node(0).ap().run(
      [](cpu::Processor* ap) -> sim::Co<void> {
        co_await ap->store_scalar<std::uint64_t>(0x60040, 0xCAFED00DBEEF1234,
                                                 /*cached=*/false);
      }(&machine.node(0).ap()));
  drive_until([&] {
    return machine.node(1).dram().store().read_scalar<std::uint64_t>(
               0x70040) == 0xCAFED00DBEEF1234ull;
  });
  EXPECT_EQ(refl.updates_forwarded().value(), 1u);
}

TEST_F(FwTest, ReflectiveMemoryHardwareMode) {
  // All-hardware mode: the aBIU emits the remote update itself; the sP
  // never runs.
  machine.node(0).niu().abiu().add_reflect_range(
      0x62000, 4096, /*hw_mode=*/true, {{1, 0x72000}});

  const sim::Tick sp_busy_before = machine.node(0).sp().busy();
  machine.node(0).ap().run(
      [](cpu::Processor* ap) -> sim::Co<void> {
        co_await ap->store_scalar<std::uint32_t>(0x62080, 0xA5A5A5A5,
                                                 /*cached=*/false);
      }(&machine.node(0).ap()));
  drive_until([&] {
    return machine.node(1).dram().store().read_scalar<std::uint32_t>(
               0x72080) == 0xA5A5A5A5u;
  });
  EXPECT_EQ(machine.node(0).sp().busy(), sp_busy_before);
}

TEST_F(FwTest, ReflectiveMemoryFanOutToMultiplePeers) {
  auto machine4 = sys::Machine(test::small_machine_params(4));
  machine4.node(0).niu().abiu().add_reflect_range(
      0x64000, 4096, /*hw_mode=*/true,
      {{1, 0x74000}, {2, 0x74000}, {3, 0x74000}});

  machine4.node(0).ap().run(
      [](cpu::Processor* ap) -> sim::Co<void> {
        co_await ap->store_scalar<std::uint32_t>(0x64010, 0x0F0F0F0F,
                                                 /*cached=*/false);
      }(&machine4.node(0).ap()));
  test::drive(machine4.kernel(), [&] {
    for (sim::NodeId n = 1; n < 4; ++n) {
      if (machine4.node(n).dram().store().read_scalar<std::uint32_t>(
              0x74010) != 0x0F0F0F0Fu) {
        return false;
      }
    }
    return true;
  });
}

TEST_F(FwTest, ChunkOpenerOpensLinesOnArrival) {
  // Close a cls range, then send a remote write with chunk_notify: the
  // chunk opener must open exactly the written lines.
  auto& cls1 = machine.node(1).niu().cls();
  for (mem::Addr a = 0; a < 256; a += mem::kLineBytes) {
    cls1.poke(niu::kScomaBase + 0x8000 + a, xfer::kClsBlockPending);
  }

  niu::Command wr;
  wr.op = niu::CmdOp::kWriteApDram;
  wr.addr = niu::kScomaBase + 0x8000;
  wr.data = test::pattern_bytes(64, 10);
  wr.chunk_notify = true;
  wr.src_node = 0;

  sim::spawn([](sys::Machine* m, niu::Command c) -> sim::Co<void> {
    net::Packet pkt;
    pkt.src = 0;
    pkt.dest = 1;
    pkt.dest_queue = net::kRemoteCmdQueue;
    pkt.payload = niu::encode_remote(c);
    co_await m->node(0).niu().ctrl().inject(std::move(pkt));
  }(&machine, wr));

  drive_until([&] {
    return cls1.peek(niu::kScomaBase + 0x8000) ==
               niu::ABiu::kClsReadWrite &&
           cls1.peek(niu::kScomaBase + 0x8020) == niu::ABiu::kClsReadWrite;
  });
  // Lines beyond the written chunk stay closed.
  EXPECT_EQ(cls1.peek(niu::kScomaBase + 0x8040), xfer::kClsBlockPending);
  EXPECT_EQ(machine.node(1).chunk_opener().chunks_opened().value(), 1u);
}

TEST_F(FwTest, FirmwareOccupancyAccrues) {
  // A DMA request occupies the sP measurably.
  auto data = test::pattern_bytes(4096, 11);
  machine.node(0).dram().store().write(0x10000, data);
  const sim::Tick sp0 = machine.node(0).sp().busy();

  bool got = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map) -> sim::Co<void> {
        co_await msg::dma_write(*ep, map, 0, 1, 0x10000, 0x20000, 4096,
                                msg::AddressMap::kUser0L, 1);
      }(eps[0].get(), machine.addr_map()));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
        (void)co_await ep->recv();
        *done = true;
      }(eps[1].get(), &got));
  drive_until([&] { return got; });
  EXPECT_GT(machine.node(0).sp().busy(), sp0);
}

}  // namespace
}  // namespace sv
