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
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "tests/test_util.hpp"
#include "xfer/approaches.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting global allocator. Counts every allocation in the process (gtest
// included), so tests only compare deltas across windows where the code
// under test runs alone.
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sv {
namespace {

std::uint64_t allocs() { return g_news.load(std::memory_order_relaxed); }

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

}  // namespace
}  // namespace sv
