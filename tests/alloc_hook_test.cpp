// Allocation-counting hook: proves the kernel hot path is allocation-free.
//
// This binary replaces the global operator new/delete with counting
// versions (DESIGN.md §11). Each test warms the relevant path up — letting
// coroutine frames seed the FramePool freelists, PacketPool slots get
// created, the event heap and its callback slab reach their high-water
// depth — then snapshots the allocation counter across a steady-state
// window and requires it not to move. Any regression that reintroduces a
// heap allocation per event dispatch or per packet hop (an oversized
// lambda falling back to std::function, a payload growing a vector again,
// a coroutine frame missing the pool) fails here with an exact count.
// The machine-level cases bound allocations per delivered message instead,
// at every machine size up to 1024 nodes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/coro.hpp"
#include "sim/fifo.hpp"
#include "sim/frame_pool.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "tests/test_util.hpp"
#include "xfer/approaches.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting global allocator. Counts every allocation in the process (gtest
// included), so tests only compare deltas across windows where the code
// under test runs alone. None of these is inlined: at -O3, g++ 12 would
// see malloc() inlined on one side of a new/delete pair and free() on the
// other, and report a mismatched deallocation (-Wmismatched-new-delete)
// that cannot happen.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sv {
namespace {

std::uint64_t allocs() { return g_news.load(std::memory_order_relaxed); }

bool scale_slow() {
  const char* v = std::getenv("SV_SCALE_SLOW");
  return v != nullptr && v[0] == '1';
}

// --- Event dispatch -------------------------------------------------------

// A self-rescheduling event chain: the canonical steady-state workload.
// Capture is 24 bytes — well inside InlineFunc's inline buffer.
struct Ticker {
  sim::Kernel* k;
  std::uint64_t remaining;
  sim::Tick delta;

  void operator()() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    k->schedule(delta, Ticker{*this});
  }
};

TEST(AllocHook, KernelConstructionAllocatesNothing) {
  // An empty event queue owns no storage: a Kernel (one per node domain
  // in a partitioned machine) costs nothing on the heap until its first
  // event.
  const std::uint64_t before = allocs();
  {
    sim::Kernel k;
    EXPECT_TRUE(k.idle());
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocHook, EmptyQueuesAllocateNothing) {
  // A 1024-node machine builds tens of thousands of queues and waiter
  // lists that stay empty; they must cost no heap until their first push.
  sim::Kernel k;
  const std::uint64_t before = allocs();
  {
    sim::Fifo<net::Packet> packets;
    sim::Semaphore sem(k, 1);
    sim::Channel<int> chan(k);
    EXPECT_TRUE(packets.empty());
    EXPECT_EQ(sem.available(), 1u);
    EXPECT_TRUE(chan.empty());
  }
  EXPECT_EQ(allocs() - before, 0u);

  // Once grown, a FIFO keeps its ring: a steady push/pop cycle, its front
  // going round and round the ring, allocates nothing.
  sim::Fifo<net::Packet> q;
  for (int i = 0; i < 8; ++i) {
    q.push_back(net::Packet{});
  }
  for (int i = 0; i < 3; ++i) {
    q.pop_front();
  }
  const std::uint64_t warm = allocs();
  for (int round = 0; round < 1000; ++round) {
    q.push_back(net::Packet{});
    q.push_back(net::Packet{});
    q.pop_front();
    q.pop_front();
  }
  EXPECT_EQ(allocs() - warm, 0u);
  EXPECT_EQ(q.size(), 5u);
}

TEST(AllocHook, EventDispatchIsAllocationFree) {
  sim::Kernel k;
  // Warmup: grows the heap and the callback slab to the chain's depth.
  k.schedule(1, Ticker{&k, 10'000, 100});
  k.run();

  const std::uint64_t before = allocs();
  k.schedule(1, Ticker{&k, 100'000, 100});
  k.run();
  EXPECT_EQ(allocs() - before, 0u)
      << "schedule/dispatch allocated on the steady-state path";
}

TEST(AllocHook, FarEventsUseOnlyTheWarmHeap) {
  sim::Kernel k;
  // Deltas of 1 µs, far beyond the machine's clock periods; after warmup
  // the heap's backing vector no longer grows.
  k.schedule(1, Ticker{&k, 10'000, 1'000'000});
  k.run();

  const std::uint64_t before = allocs();
  k.schedule(1, Ticker{&k, 100'000, 1'000'000});
  k.run();
  EXPECT_EQ(allocs() - before, 0u);
}

// --- Coroutine frame pool --------------------------------------------------

// A frame-sized block: 200 bytes lands in one FramePool size class.
constexpr std::size_t kFrameBytes = 200;
constexpr std::size_t kFrames = 1000;

TEST(AllocHook, FramePoolRecyclesEveryFreedFrame) {
  // More frames of one class live at once than any fixed per-class cap:
  // every one freed must come back without touching the heap.
  std::vector<void*> frames(kFrames);
  for (void*& f : frames) {
    f = sim::FramePool::allocate(kFrameBytes);
  }
  for (void* f : frames) {
    sim::FramePool::deallocate(f);
  }
  const std::uint64_t before = allocs();
  for (void*& f : frames) {
    f = sim::FramePool::allocate(kFrameBytes);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "re-allocating freed frames went to operator new";
  for (void* f : frames) {
    sim::FramePool::deallocate(f);
  }
}

TEST(AllocHook, FramePoolHandsAnExitedThreadsFramesOn) {
  // Blocks pooled on a thread would be stranded once it exits, and every
  // ParallelKernel worker exits with its machine. Its exit hands them on:
  // the next thread to run short (the next machine's worker) allocates
  // the same number of frames without touching the heap.
  auto pool_then_exit = [] {
    std::vector<void*> frames(kFrames);
    for (void*& f : frames) {
      f = sim::FramePool::allocate(kFrameBytes);
    }
    for (void* f : frames) {
      sim::FramePool::deallocate(f);
    }
  };
  std::thread(pool_then_exit).join();

  std::uint64_t news = 0;
  std::thread([&news] {
    std::array<void*, kFrames> frames{};
    const std::uint64_t before = allocs();
    for (void*& f : frames) {
      f = sim::FramePool::allocate(kFrameBytes);
    }
    news = allocs() - before;
    for (void* f : frames) {
      sim::FramePool::deallocate(f);
    }
  }).join();
  EXPECT_EQ(news, 0u) << "frames pooled on an exited thread were stranded";
}

// --- Packet hop over a Link ----------------------------------------------

TEST(AllocHook, LinkPacketHopIsAllocationFree) {
  sim::Kernel k;
  net::Link link(k, "l", {});
  std::uint64_t received = 0;
  link.set_sink([&](net::Packet&& p) {
    ++received;
    link.return_credit(p.priority);
  });

  auto burst = [&](std::uint64_t count) -> sim::Co<void> {
    for (std::uint64_t i = 0; i < count; ++i) {
      net::Packet pkt;
      pkt.dest = 1;
      pkt.serial = i + 1;
      pkt.payload.resize(64);
      co_await link.send(std::move(pkt));
    }
  };

  // Warmup: seeds FramePool freelists (send/delay coroutine frames) and
  // the link's PacketPool slot.
  sim::spawn(burst(300));
  k.run();
  ASSERT_EQ(received, 300u);

  const std::uint64_t before = allocs();
  sim::spawn(burst(1'000));
  k.run();
  EXPECT_EQ(allocs() - before, 0u)
      << "a packet hop across a warm link allocated";
  EXPECT_EQ(received, 1'300u);
}

// --- Packet delivery through IdealNetwork --------------------------------

TEST(AllocHook, IdealNetworkSteadyStateIsAllocationFree) {
  sim::Kernel k;
  net::IdealNetwork net(k, "net", {.nodes = 2});
  std::uint64_t received = 0;
  net.set_endpoint(0, [&](net::Packet&&) {});
  net.set_endpoint(1, [&](net::Packet&&) { ++received; });

  auto burst = [&](std::uint64_t count) -> sim::Co<void> {
    for (std::uint64_t i = 0; i < count; ++i) {
      net::Packet pkt;
      pkt.src = 0;
      pkt.dest = 1;
      pkt.payload.resize(64);
      co_await net.inject(std::move(pkt));
    }
  };

  sim::spawn(burst(300));
  k.run();
  ASSERT_EQ(received, 300u);

  const std::uint64_t before = allocs();
  sim::spawn(burst(1'000));
  k.run();
  EXPECT_EQ(allocs() - before, 0u)
      << "an IdealNetwork inject->deliver round allocated";
  EXPECT_EQ(received, 1'300u);
}

// The same round trip partitioned: each node in its own domain, domain 1
// on a helper thread, both nodes sending. After warm-up the outboxes, the
// mail slots, the mailbox heaps and the barrier's scratch lists all keep
// their capacity, so an epoch's handoff allocates nothing either.
TEST(AllocHook, PartitionedIdealNetworkSteadyStateIsAllocationFree) {
  constexpr sim::Tick kLatency = sim::kMicrosecond;
  std::vector<sim::Kernel> ks(2);
  net::IdealNetwork net(sim::DomainMap({&ks[0], &ks[1]}), "net",
                        {.nodes = 2, .latency = kLatency});
  std::array<std::uint64_t, 2> received{};
  net.set_endpoint(0, [&](net::Packet&&) { ++received[0]; });
  net.set_endpoint(1, [&](net::Packet&&) { ++received[1]; });

  auto burst = [&](sim::NodeId src, std::uint64_t count) -> sim::Co<void> {
    for (std::uint64_t i = 0; i < count; ++i) {
      net::Packet pkt;
      pkt.src = src;
      pkt.dest = 1 - src;
      pkt.payload.resize(64);
      co_await net.inject(std::move(pkt));
    }
  };

  sim::ParallelKernel pk({&ks[0], &ks[1]}, 2, kLatency);
  std::uint64_t want = 0;
  // Built once: a std::function's capture may live on the heap.
  const std::function<bool()> delivered = [&] {
    return received[0] == want && received[1] == want;
  };
  const auto round = [&](std::uint64_t count) {
    want += count;
    // Each burst starts inside its own domain, so its coroutine frames
    // come from and go back to the thread that runs that domain.
    for (sim::NodeId n = 0; n < 2; ++n) {
      ks[n].schedule(0, [&burst, n, count] { sim::spawn(burst(n, count)); });
    }
    return pk.run_epochs_until(delivered, pk.now() + 10 * sim::kMillisecond);
  };

  ASSERT_TRUE(round(300));

  const std::uint64_t before = allocs();
  ASSERT_TRUE(round(1'000));
  EXPECT_EQ(allocs() - before, 0u)
      << "a partitioned IdealNetwork inject->deliver round allocated";
}

// --- Functional-model steady state (fig4-style msg workload) --------------

// The full machine driving the Figure-4 messaging transfer (approach 1:
// aP copies through DRAM, NIU basic messages carry the data) — the steady
// state the fast-path layer (DESIGN.md §12) optimizes. Unlike the bare
// kernel paths above, the functional model is not yet allocation-FREE:
// after warmup, the known remaining allocators are (a) one payload-vector
// allocation per received basic message (msg::Message::data) and (b) a
// std::deque<net::Packet> block node every handful of packets in the NIU
// tx and router output queues. Both are per-MESSAGE or rarer — measured
// ~390 per 16 KiB transfer (~190 basic messages), and this workload
// dispatches ~30k events per transfer. The bound below therefore still
// fails loudly on any per-event or per-packet-hop regression (which would
// add >= 30k allocations per transfer) while pinning the per-message costs
// so they cannot silently multiply.
TEST(AllocHook, Fig4MsgWorkloadSteadyStateAllocationsBounded) {
  auto mp = test::small_machine_params(2);
  sys::Machine machine(mp);
  xfer::BlockTransferHarness harness(machine);
  xfer::TransferSpec spec;
  spec.len = 16384;

  // Warmup: reach steady pool occupancy and the event heap's high-water
  // depth.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(harness.run(1, spec).ok);
  }

  const std::uint64_t before = allocs();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(harness.run(1, spec).ok);
  }
  // Measured: 1158 over the 3-transfer window (~386 per transfer, ~2 per
  // delivered message). The ceiling leaves ~38% noise headroom.
  EXPECT_LT(allocs() - before, 1600u)
      << "a warm fig4-style messaging transfer allocated far beyond the "
         "known per-message sources (payload vectors, packet-deque nodes)";
}

// --- Fat-tree neighbour exchange at scale ----------------------------------

/// One node of the exchange: per round, one 32-byte message to the
/// right-hand neighbour, then one received.
sim::Co<void> exchange_node(msg::Endpoint* ep, std::uint16_t vdest,
                            std::span<const std::byte> payload,
                            std::uint32_t rounds, std::uint32_t* done,
                            std::uint64_t* delivered) {
  for (std::uint32_t r = 0; r < rounds; ++r) {
    co_await ep->send(vdest, payload);
    (void)co_await ep->recv();
    ++*delivered;
    *done = r + 1;
  }
}

/// Allocations per delivered message over `measured` rounds of a neighbour
/// exchange on an `nodes`-node fat tree (svbench `scale`'s traffic), after
/// `warmup` rounds.
double exchange_allocs_per_message(std::size_t nodes, std::uint32_t warmup,
                                   std::uint32_t measured) {
  sys::Machine machine(test::small_machine_params(nodes));
  const auto map = machine.addr_map();
  const std::vector<std::byte> payload(32, std::byte{0x5A});
  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  std::vector<std::uint32_t> done(nodes, 0);
  std::uint64_t delivered = 0;
  for (sim::NodeId i = 0; i < nodes; ++i) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(i).ap(), machine.node(i).endpoint_config()));
  }
  for (sim::NodeId i = 0; i < nodes; ++i) {
    machine.node(i).ap().run(exchange_node(
        eps[i].get(), map.user0(static_cast<sim::NodeId>((i + 1) % nodes)),
        payload, warmup + measured, &done[i], &delivered));
  }
  auto reach = [&](std::uint32_t rounds) {
    std::size_t cursor = 0;  // done only grows: scan each node once
    return machine.run_epochs_until(
        [&] {
          while (cursor < nodes && done[cursor] >= rounds) {
            ++cursor;
          }
          return cursor == nodes;
        },
        machine.now() + 100 * sim::kMillisecond);
  };
  EXPECT_TRUE(reach(warmup));
  const std::uint64_t before = allocs();
  const std::uint64_t delivered_before = delivered;
  EXPECT_TRUE(reach(warmup + measured));
  return static_cast<double>(allocs() - before) /
         static_cast<double>(delivered - delivered_before);
}

// The allocation contract per delivered message holds whatever the machine
// size. 70 warm-up rounds wrap the 64-slot queues and create every cache
// set the exchange touches; after that, what remains per message is its
// payload vector (msg::Message::data): 1.00 measured at 256 and at 1024
// nodes. The router and NIU packet queues keep their rings once grown
// (sim::Fifo); as std::deques they cost a block every few packets, 1.84
// per message in all. Coroutine frames must all recycle: a 1024-node
// machine keeps more transient frames of one class live than a pool
// capped at 128 per class retains, which cost 13.6 allocations per
// message at 256 nodes and 29.4 at 1024.
TEST(AllocHook, FatTreeExchange256AllocationsPerMessageBounded) {
  const double per_message = exchange_allocs_per_message(256, 70, 10);
  RecordProperty("allocs_per_message", std::to_string(per_message));
  EXPECT_LE(per_message, 1.25);
}

TEST(AllocHook, FatTreeExchange1024AllocationsPerMessageBounded) {
  if (!scale_slow()) {
    GTEST_SKIP() << "set SV_SCALE_SLOW=1 to run the 1024-node exchange";
  }
  const double per_message = exchange_allocs_per_message(1024, 70, 10);
  RecordProperty("allocs_per_message", std::to_string(per_message));
  EXPECT_LE(per_message, 1.25);
}

}  // namespace
}  // namespace sv
