// Processor-model tests: cached/uncached access paths, busy-time
// accounting, the sP mutual-exclusion helper, and program spawning.
#include <gtest/gtest.h>

#include <cstring>

#include "cpu/processor.hpp"
#include "mem/dram.hpp"
#include "tests/test_util.hpp"

namespace sv::cpu {
namespace {

class ProcessorTest : public ::testing::Test {
 protected:
  ProcessorTest() {
    mem::DramCtrl::Params dp;
    dp.ranges.push_back({0x0, 1 << 20});
    dram = std::make_unique<mem::DramCtrl>(kernel, "dram", dp);
    bus.attach(dram.get());
    cache = std::make_unique<mem::SnoopingCache>(kernel, "L2", bus,
                                                 mem::SnoopingCache::Params{});
    proc = std::make_unique<Processor>(kernel, "aP", bus, cache.get(),
                                       Processor::Params{});
    uncached_proc = std::make_unique<Processor>(kernel, "sP", bus, nullptr,
                                                Processor::Params{});
  }

  sim::Kernel kernel;
  mem::MemBus bus{kernel, "bus", {}};
  std::unique_ptr<mem::DramCtrl> dram;
  std::unique_ptr<mem::SnoopingCache> cache;
  std::unique_ptr<Processor> proc;
  std::unique_ptr<Processor> uncached_proc;
};

TEST_F(ProcessorTest, CachedRoundTrip) {
  test::run_co(kernel, [](Processor* p) -> sim::Co<void> {
    co_await p->store_scalar<std::uint64_t>(0x100, 0x1122334455667788ull);
    const auto v = co_await p->load_scalar<std::uint64_t>(0x100);
    EXPECT_EQ(v, 0x1122334455667788ull);
  }(proc.get()));
}

TEST_F(ProcessorTest, UncachedRoundTripHitsMemoryDirectly) {
  test::run_co(kernel, [](Processor* p, mem::DramCtrl* d) -> sim::Co<void> {
    co_await p->store_scalar<std::uint32_t>(0x200, 0xAABBCCDD,
                                            /*cached=*/false);
    // Visible in DRAM immediately (no write-back delay).
    EXPECT_EQ(d->store().read_scalar<std::uint32_t>(0x200), 0xAABBCCDDu);
    const auto v =
        co_await p->load_scalar<std::uint32_t>(0x200, /*cached=*/false);
    EXPECT_EQ(v, 0xAABBCCDDu);
  }(proc.get(), dram.get()));
}

TEST_F(ProcessorTest, UncachedLargeAccessSplitsIntoSingles) {
  auto data = test::pattern_bytes(40);  // crosses 8-byte boundaries
  test::run_co(kernel,
               [](Processor* p, const std::vector<std::byte>* d)
                   -> sim::Co<void> {
                 co_await p->store_uncached(0x304, *d);  // unaligned start
                 std::vector<std::byte> got(40);
                 co_await p->load_uncached(0x304, got);
                 EXPECT_EQ(got, *d);
               }(proc.get(), &data));
  // 0x304..0x32C unaligned: more than 40/8 singles.
  EXPECT_GT(proc->ops().value(), 10u);
}

TEST_F(ProcessorTest, ProcessorWithoutCacheFallsBackToUncached) {
  test::run_co(kernel, [](Processor* p) -> sim::Co<void> {
    co_await p->store_scalar<std::uint32_t>(0x400, 7);  // cached requested
    const auto v = co_await p->load_scalar<std::uint32_t>(0x400);
    EXPECT_EQ(v, 7u);
  }(uncached_proc.get()));
  EXPECT_EQ(cache->stats().write_misses.value(), 0u);
}

TEST_F(ProcessorTest, WorkAdvancesTimeAndBusy) {
  const sim::Tick t0 = kernel.now();
  test::run_co(kernel, proc->work(100));
  EXPECT_EQ(kernel.now() - t0, 100 * proc->params().clock.period());
  EXPECT_EQ(proc->busy(), 100 * proc->params().clock.period());
}

TEST_F(ProcessorTest, BusyCoversMemoryOperations) {
  test::run_co(kernel, [](Processor* p) -> sim::Co<void> {
    std::byte buf[64];
    co_await p->load(0x500, buf);  // two line misses: real bus time
  }(proc.get()));
  // Busy equals the elapsed time of the operation (the processor stalls).
  EXPECT_EQ(proc->busy(), kernel.now());
  EXPECT_GT(proc->busy(), 0u);
}

TEST_F(ProcessorTest, MutexSerializesAgents) {
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim::spawn([](Processor* p, sim::Kernel* k, std::vector<int>* out,
                  int id) -> sim::Co<void> {
      co_await p->acquire();
      out->push_back(id);
      co_await sim::delay(*k, 100);
      p->release();
    }(proc.get(), &kernel, &order, i));
  }
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(ProcessorTest, FlushRangePushesDirtyData) {
  auto data = test::pattern_bytes(128);
  test::run_co(kernel,
               [](Processor* p, mem::DramCtrl* d,
                  const std::vector<std::byte>* in) -> sim::Co<void> {
                 co_await p->store(0x600, *in);
                 co_await p->flush_range(0x600, in->size());
                 std::vector<std::byte> got(in->size());
                 d->store().read(0x600, got);
                 EXPECT_EQ(got, *in);
               }(proc.get(), dram.get(), &data));
}

TEST_F(ProcessorTest, TwoProcessorsContendOnOneBus) {
  // Both processors hammer uncached ops; the bus serializes them, so the
  // total time exceeds what either would need alone.
  sim::Tick solo = 0;
  {
    const sim::Tick t0 = kernel.now();
    test::run_co(kernel, [](Processor* p) -> sim::Co<void> {
      for (int i = 0; i < 20; ++i) {
        co_await p->store_scalar<std::uint64_t>(0x700, 1, false);
      }
    }(proc.get()));
    solo = kernel.now() - t0;
  }
  const sim::Tick t1 = kernel.now();
  int done = 0;
  for (Processor* p : {proc.get(), uncached_proc.get()}) {
    sim::spawn([](Processor* pp, int* d) -> sim::Co<void> {
      for (int i = 0; i < 20; ++i) {
        co_await pp->store_scalar<std::uint64_t>(0x700, 2, false);
      }
      ++*d;
    }(p, &done));
  }
  kernel.run();
  EXPECT_EQ(done, 2);
  EXPECT_GT(kernel.now() - t1, solo);
}

}  // namespace
}  // namespace sv::cpu
