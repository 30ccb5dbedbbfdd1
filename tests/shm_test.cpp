// Shared-memory tests: NUMA (uncached remote access through firmware) and
// S-COMA (cls-gated local-DRAM caching with a home-based invalidate
// protocol), including multi-node coherence properties.
#include <gtest/gtest.h>

#include <cstring>

#include "shm/numa_region.hpp"
#include "sim/random.hpp"
#include "shm/scoma_region.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

class ShmTest : public ::testing::Test {
 protected:
  explicit ShmTest(std::size_t nodes = 2)
      : machine(test::small_machine_params(nodes)) {}

  void drive_until(const std::function<bool()>& pred) {
    test::drive(machine.kernel(), pred);
  }

  void run_on_ap(sim::NodeId n, sim::Co<void> co) {
    bool done = false;
    machine.node(n).ap().run(
        [](sim::Co<void> c, bool* d) -> sim::Co<void> {
          co_await std::move(c);
          *d = true;
        }(std::move(co), &done));
    drive_until([&] { return done; });
  }

  sys::Machine machine;
};

// --- NUMA -------------------------------------------------------------------

TEST_F(ShmTest, NumaStoreThenLoadLocalHome) {
  // Page 0 of the NUMA window homes on node 0.
  shm::NumaRegion numa(machine.node(0).ap());
  run_on_ap(0, [](shm::NumaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint64_t>(0x100, 0xABCDEF0123456789ull);
    const auto v = co_await r->load<std::uint64_t>(0x100);
    EXPECT_EQ(v, 0xABCDEF0123456789ull);
  }(&numa));
  // The value landed in node 0's NUMA backing DRAM.
  EXPECT_EQ(machine.node(0).dram().store().read_scalar<std::uint64_t>(
                fw::kNumaBackingBase + 0x100),
            0xABCDEF0123456789ull);
}

TEST_F(ShmTest, NumaRemoteHomeRoundTrip) {
  // Page 1 homes on node 1; node 0 writes and reads it remotely.
  shm::NumaRegion numa(machine.node(0).ap());
  const mem::Addr off = 4096 + 0x40;
  run_on_ap(0, [](shm::NumaRegion* r, mem::Addr o) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(o, 0x5555AAAA);
    const auto v = co_await r->load<std::uint32_t>(o);
    EXPECT_EQ(v, 0x5555AAAAu);
  }(&numa, off));
  EXPECT_EQ(machine.node(1).dram().store().read_scalar<std::uint32_t>(
                fw::kNumaBackingBase + off),
            0x5555AAAAu);
  EXPECT_GE(machine.node(0).numa().remote_loads().value(), 1u);
  EXPECT_GE(machine.node(0).numa().remote_stores().value(), 1u);
}

TEST_F(ShmTest, NumaCrossNodeVisibility) {
  // Node 0 writes, node 1 reads the same NUMA address.
  shm::NumaRegion numa0(machine.node(0).ap());
  shm::NumaRegion numa1(machine.node(1).ap());
  run_on_ap(0, [](shm::NumaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x80, 42);
  }(&numa0));
  run_on_ap(1, [](shm::NumaRegion* r) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint32_t>(0x80);
    EXPECT_EQ(v, 42u);
  }(&numa1));
}

TEST_F(ShmTest, NumaRemoteLoadSlowerThanLocal) {
  shm::NumaRegion numa(machine.node(0).ap());
  auto& kernel = machine.kernel();

  sim::Tick local_time = 0, remote_time = 0;
  {
    const sim::Tick t0 = kernel.now();
    run_on_ap(0, [](shm::NumaRegion* r) -> sim::Co<void> {
      (void)co_await r->load<std::uint32_t>(0x0);  // home: node 0
    }(&numa));
    local_time = kernel.now() - t0;
  }
  {
    const sim::Tick t0 = kernel.now();
    run_on_ap(0, [](shm::NumaRegion* r) -> sim::Co<void> {
      (void)co_await r->load<std::uint32_t>(4096);  // home: node 1
    }(&numa));
    remote_time = kernel.now() - t0;
  }
  EXPECT_GT(remote_time, local_time);
}

// --- S-COMA -----------------------------------------------------------------

TEST_F(ShmTest, ScomaHomeAccessIsLocal) {
  // Page 0 of the S-COMA region homes on node 0: its aP reads/writes at
  // local speed with no protocol traffic.
  shm::ScomaRegion sc(machine.node(0).ap());
  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint64_t>(0x40, 0x1122334455667788ull);
    const auto v = co_await r->load<std::uint64_t>(0x40);
    EXPECT_EQ(v, 0x1122334455667788ull);
  }(&sc));
  EXPECT_EQ(machine.node(0).scoma()->stats().read_misses.value(), 0u);
  EXPECT_EQ(machine.node(0).scoma()->stats().write_misses.value(), 0u);
}

TEST_F(ShmTest, ScomaRemoteReadMissFetchesLine) {
  // Node 0 writes a home line; node 1 reads it (read miss -> grant).
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());

  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint64_t>(0x100, 0xFACEFACEFACEFACEull);
    // Push it to the local DRAM L3 so the home copy is current.
    co_await r->flush(0x100, 8);
  }(&sc0));

  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint64_t>(0x100);
    EXPECT_EQ(v, 0xFACEFACEFACEFACEull);
  }(&sc1));

  EXPECT_GE(machine.node(1).scoma()->stats().read_misses.value(), 1u);
  // Node 1's cls state for the line is now ReadOnly.
  EXPECT_EQ(machine.node(1).niu().cls().peek(niu::kScomaBase + 0x100),
            niu::ABiu::kClsReadOnly);
}

TEST_F(ShmTest, ScomaWriteMissGainsOwnershipAndInvalidatesHome) {
  shm::ScomaRegion sc1(machine.node(1).ap());
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x200, 0x77778888);
  }(&sc1));

  // Node 1 now owns the line read-write; the home (node 0) is invalid.
  EXPECT_EQ(machine.node(1).niu().cls().peek(niu::kScomaBase + 0x200),
            niu::ABiu::kClsReadWrite);
  EXPECT_EQ(machine.node(0).niu().cls().peek(niu::kScomaBase + 0x200),
            niu::ABiu::kClsInvalid);
}

TEST_F(ShmTest, ScomaDirtyRecallSuppliesFreshData) {
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());

  // Node 1 takes ownership and dirties the line (in its aP cache).
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x300, 0xD1D1D1D1);
  }(&sc1));
  // Home node 0 reads it back: recall must flush node 1's cache and DRAM.
  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint32_t>(0x300);
    EXPECT_EQ(v, 0xD1D1D1D1u);
  }(&sc0));
  EXPECT_GE(machine.node(0).scoma()->stats().recalls.value(), 1u);
}

TEST_F(ShmTest, ScomaUpgradeInvalidatesSharers) {
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());

  // Both nodes read the line (node 0 is home, node 1 becomes a sharer).
  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x400, 1);
    co_await r->flush(0x400, 4);
  }(&sc0));
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    (void)co_await r->load<std::uint32_t>(0x400);
  }(&sc1));

  // Node 1 upgrades to write: node 0's copy must be invalidated.
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x400, 2);
  }(&sc1));
  EXPECT_EQ(machine.node(0).niu().cls().peek(niu::kScomaBase + 0x400),
            niu::ABiu::kClsInvalid);

  // Node 0 re-reads: sees node 1's value via recall.
  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint32_t>(0x400);
    EXPECT_EQ(v, 2u);
  }(&sc0));
}

TEST_F(ShmTest, ScomaPingPongConverges) {
  // Two nodes alternately increment one shared counter 10 times each.
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());
  const mem::Addr off = 0x500;

  // Strict alternation via a turn flag in a second line.
  auto worker = [](shm::ScomaRegion* r, mem::Addr counter, mem::Addr turn,
                   std::uint32_t me, int rounds) -> sim::Co<void> {
    for (int i = 0; i < rounds; ++i) {
      for (;;) {
        const auto t = co_await r->load<std::uint32_t>(turn);
        if (t == me) {
          break;
        }
      }
      const auto v = co_await r->load<std::uint32_t>(counter);
      co_await r->store<std::uint32_t>(counter, v + 1);
      co_await r->store<std::uint32_t>(turn, 1 - me);
    }
  };

  bool d0 = false, d1 = false;
  machine.node(0).ap().run(
      [](sim::Co<void> c, bool* d) -> sim::Co<void> {
        co_await std::move(c);
        *d = true;
      }(worker(&sc0, off, off + 64, 0, 10), &d0));
  machine.node(1).ap().run(
      [](sim::Co<void> c, bool* d) -> sim::Co<void> {
        co_await std::move(c);
        *d = true;
      }(worker(&sc1, off, off + 64, 1, 10), &d1));
  drive_until([&] { return d0 && d1; });

  shm::ScomaRegion check(machine.node(0).ap());
  run_on_ap(0, [](shm::ScomaRegion* r, mem::Addr o) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint32_t>(o);
    EXPECT_EQ(v, 20u);
  }(&check, off));
}

class ShmTest4 : public ShmTest {
 protected:
  ShmTest4() : ShmTest(4) {}
};

TEST_F(ShmTest4, ScomaAllNodesReadSharedLine) {
  shm::ScomaRegion sc0(machine.node(0).ap());
  run_on_ap(0, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x600, 0x600D);
    co_await r->flush(0x600, 4);
  }(&sc0));

  for (sim::NodeId n = 1; n < 4; ++n) {
    shm::ScomaRegion sc(machine.node(n).ap());
    run_on_ap(n, [](shm::ScomaRegion* r) -> sim::Co<void> {
      const auto v = co_await r->load<std::uint32_t>(0x600);
      EXPECT_EQ(v, 0x600Du);
    }(&sc));
  }
  // Then one node writes: everyone else invalidates.
  shm::ScomaRegion sc3(machine.node(3).ap());
  run_on_ap(3, [](shm::ScomaRegion* r) -> sim::Co<void> {
    co_await r->store<std::uint32_t>(0x600, 0xBADD);
  }(&sc3));
  for (sim::NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(machine.node(n).niu().cls().peek(niu::kScomaBase + 0x600),
              niu::ABiu::kClsInvalid)
        << "node " << n;
  }
  // And a reader sees the new value.
  shm::ScomaRegion sc1(machine.node(1).ap());
  run_on_ap(1, [](shm::ScomaRegion* r) -> sim::Co<void> {
    const auto v = co_await r->load<std::uint32_t>(0x600);
    EXPECT_EQ(v, 0xBADDu);
  }(&sc1));
}

TEST_F(ShmTest4, NumaPagesInterleaveAcrossHomes) {
  auto& numa = machine.node(0).numa();
  EXPECT_EQ(numa.home_of(niu::kNumaBase + 0 * 4096), 0u);
  EXPECT_EQ(numa.home_of(niu::kNumaBase + 1 * 4096), 1u);
  EXPECT_EQ(numa.home_of(niu::kNumaBase + 2 * 4096), 2u);
  EXPECT_EQ(numa.home_of(niu::kNumaBase + 3 * 4096), 3u);
  EXPECT_EQ(numa.home_of(niu::kNumaBase + 4 * 4096), 0u);
}

/// Property: random single-writer-per-line traffic across 2 nodes stays
/// coherent with a reference model.
class ScomaProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScomaProperty, RandomSharedTrafficCoherent) {
  auto machine = sys::Machine(test::small_machine_params(2));
  shm::ScomaRegion sc0(machine.node(0).ap());
  shm::ScomaRegion sc1(machine.node(1).ap());

  sim::Rng rng(GetParam());
  std::vector<std::uint32_t> ref(16, 0);  // 16 words on distinct lines

  bool done = false;
  machine.node(0).ap().run(
      [](shm::ScomaRegion* a, shm::ScomaRegion* b, sim::Rng* rng,
         std::vector<std::uint32_t>* ref, bool* d) -> sim::Co<void> {
        // Alternate actors sequentially (sequential consistency check):
        // every read must observe the latest write, regardless of node.
        for (int i = 0; i < 120; ++i) {
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

INSTANTIATE_TEST_SUITE_P(Seeds, ScomaProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace sv
