// Machine-level tests: construction across cluster sizes and network
// kinds, all-to-all traffic, and cross-subsystem interference (message
// passing and shared memory running simultaneously — the coexistence the
// paper's protected multi-queue design is for).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "shm/scoma_region.hpp"
#include "tests/test_util.hpp"

namespace sv {
namespace {

// gtest (and so ctest) names each case by the raw bytes of its parameter.
// `pad` fills what would otherwise be indeterminate padding after `net`, so
// every build names the cases the same.
struct MachineParam {
  std::size_t nodes;
  sys::Machine::NetKind net;
  std::uint32_t pad = 0;
};
static_assert(sizeof(MachineParam) == 16 &&
              std::has_unique_object_representations_v<MachineParam>);

class MachineSweep : public ::testing::TestWithParam<MachineParam> {};

TEST_P(MachineSweep, AllToAllMessaging) {
  const auto param = GetParam();
  sys::Machine machine(test::small_machine_params(param.nodes, param.net));
  const auto map = machine.addr_map();

  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
  }

  std::size_t done = 0;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](msg::Endpoint* ep, msg::AddressMap map, sim::NodeId self,
           std::size_t nodes, std::size_t* d) -> sim::Co<void> {
          // Send one message to every node (including self)...
          for (sim::NodeId dst = 0; dst < nodes; ++dst) {
            std::byte payload[8];
            const std::uint64_t v =
                (static_cast<std::uint64_t>(self) << 32) | dst;
            std::memcpy(payload, &v, 8);
            co_await ep->send(map.user0(dst), payload);
          }
          // ...and collect one from every node.
          std::vector<bool> seen(nodes, false);
          for (std::size_t i = 0; i < nodes; ++i) {
            msg::Message m = co_await ep->recv();
            std::uint64_t v = 0;
            std::memcpy(&v, m.data.data(), 8);
            EXPECT_EQ(v & 0xFFFFFFFF, self);
            EXPECT_EQ(v >> 32, m.src_node);
            EXPECT_FALSE(seen[m.src_node]);
            seen[m.src_node] = true;
          }
          ++*d;
        }(eps[n].get(), map, n, machine.size(), &done));
  }
  test::drive(machine.kernel(), [&] { return done == machine.size(); },
              500 * sim::kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MachineSweep,
    ::testing::Values(MachineParam{2, sys::Machine::NetKind::kFatTree},
                      MachineParam{3, sys::Machine::NetKind::kFatTree},
                      MachineParam{4, sys::Machine::NetKind::kFatTree},
                      MachineParam{8, sys::Machine::NetKind::kFatTree},
                      MachineParam{2, sys::Machine::NetKind::kIdeal},
                      MachineParam{4, sys::Machine::NetKind::kIdeal}));

TEST(MachineTest, MessagingAndSharedMemoryCoexist) {
  // Run a message ping-pong and S-COMA traffic simultaneously on the same
  // pair of nodes: the NIU's multiple protected queues keep them isolated.
  sys::Machine machine(test::small_machine_params(2));
  const auto map = machine.addr_map();
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  shm::ScomaRegion sc1(machine.node(1).ap());

  bool msg_done = false, shm_done = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map, bool* d) -> sim::Co<void> {
        for (int i = 0; i < 20; ++i) {
          std::byte b[4] = {};
          co_await ep->send(map.user0(1), b);
          (void)co_await ep->recv();
        }
        *d = true;
      }(&ep0, map, &msg_done));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map, shm::ScomaRegion* r,
         bool* d) -> sim::Co<void> {
        for (int i = 0; i < 20; ++i) {
          msg::Message m = co_await ep->recv();
          // Interleave S-COMA writes to lines homed on node 0.
          co_await r->store<std::uint32_t>(0x40 * (i + 1),
                                           static_cast<std::uint32_t>(i));
          co_await ep->send(map.user0(0), m.data);
        }
        *d = true;
      }(&ep1, map, &sc1, &shm_done));
  test::drive(machine.kernel(), [&] { return msg_done && shm_done; },
              500 * sim::kMillisecond);

  // All S-COMA lines ended up owned by node 1.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(machine.node(1).niu().cls().peek(niu::kScomaBase +
                                               0x40 * (i + 1)),
              niu::ABiu::kClsReadWrite);
  }
}

TEST(MachineTest, DisabledEnginesLeaveNullAccessors) {
  auto p = test::small_machine_params(2);
  p.node.enable_scoma = false;
  sys::Machine machine(p);
  EXPECT_EQ(machine.node(0).scoma(), nullptr);

  // Plain messaging still works without the S-COMA engine.
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  bool got = false;
  const auto payload = test::pattern_bytes(8);  // outlives the lazy send
  machine.node(0).ap().run(ep0.send(machine.addr_map().user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        (void)co_await ep->recv();
        *d = true;
      }(&ep1, &got));
  test::drive(machine.kernel(), [&] { return got; });
}

TEST(MachineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    sys::Machine machine(test::small_machine_params(4));
    auto ep0 = machine.node(0).make_endpoint();
    auto ep3 = machine.node(3).make_endpoint();
    bool got = false;
    const auto payload = test::pattern_bytes(32);  // outlives the lazy send
    machine.node(0).ap().run(ep0.send(machine.addr_map().user0(3), payload));
    machine.node(3).ap().run(
        [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
          (void)co_await ep->recv();
          *d = true;
        }(&ep3, &got));
    test::drive(machine.kernel(), [&] { return got; });
    return machine.kernel().now();
  };
  const sim::Tick a = run_once();
  const sim::Tick b = run_once();
  EXPECT_EQ(a, b);
}

TEST(MachineTest, NetworkStatsAccumulate) {
  sys::Machine machine(test::small_machine_params(2));
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  bool got = false;
  const auto payload = test::pattern_bytes(8);  // outlives the lazy send
  machine.node(0).ap().run(ep0.send(machine.addr_map().user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        (void)co_await ep->recv();
        *d = true;
      }(&ep1, &got));
  test::drive(machine.kernel(), [&] { return got; });
  EXPECT_GE(machine.network().packets_delivered(), 1u);
  EXPECT_GT(machine.network().transit_ps().mean(), 0.0);
}

// --- sSRAM layout ------------------------------------------------------------

// Every sSRAM region is disjoint from the others, and the table the NIU
// reads decodes every virtual destination to its route. The table used to
// start at 0x0000 whatever its size, so above 64 nodes it ran into the
// firmware scratch slots (and above 128 into the firmware queues), where
// any firmware message or scratch read rewrote the node's routes.
TEST(SsramLayout, RegionsAreDisjointAndEveryRouteDecodes) {
  for (const std::size_t nodes : {64, 128, 256, 1024}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    sim::Kernel kernel;
    net::IdealNetwork net(std::vector<sim::Kernel*>(nodes, &kernel), "net",
                          {});
    const sys::Node::Params params =
        test::small_machine_params(nodes, sys::Machine::NetKind::kIdeal).node;
    sys::Node node(kernel, "n0", 0, net, params);
    const msg::AddressMap map{nodes};
    node.setup(map, sys::Node::encode_translation_table(map));

    const auto regions = sys::Node::ssram_regions(map);
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const auto& a = regions[i];
      EXPECT_LE(a.base + a.bytes, node.niu().ssram().size()) << a.name;
      for (std::size_t j = i + 1; j < regions.size(); ++j) {
        const auto& b = regions[j];
        EXPECT_TRUE(a.base + a.bytes <= b.base || b.base + b.bytes <= a.base)
            << a.name << " overlaps " << b.name;
      }
    }

    const niu::Ctrl& ctrl = node.niu().ctrl();
    const auto base = ctrl.read_reg(niu::SysReg::kTranslationBase);
    EXPECT_EQ(base, sys::Node::translation_table_region(map).base);
    EXPECT_EQ(ctrl.read_reg(niu::SysReg::kTranslationSize),
              map.table_entries());
    const std::pair<std::size_t, net::QueueId> sections[] = {
        {0, msg::AddressMap::kUser0L},
        {map.stride(), fw::kDmaReqL},
        {2 * map.stride(), msg::AddressMap::kUser1L},
        {map.express_section(), msg::AddressMap::kExpressL},
    };
    std::size_t bad = 0;
    for (const auto& [section, queue] : sections) {
      for (sim::NodeId n = 0; n < nodes; ++n) {
        std::byte raw[niu::XlatEntry::kBytes];
        node.niu().ssram().read(base + (section + n) * niu::XlatEntry::kBytes,
                                raw);
        const niu::XlatEntry e = niu::XlatEntry::decode(raw);
        bad += e.valid && e.phys_node == n && e.logical_queue == queue ? 0 : 1;
      }
    }
    EXPECT_EQ(bad, 0u) << "table entries that do not decode to their route";
  }
}

// Every node of a machine shares the pages of one translation table until
// it writes them. At 128 nodes the table is 4 KiB and fills the page at
// 0x28000 exactly, so all 128 nodes start on one page: a backdoor write to
// node 0's entry for node 5 must give node 0 its own copy and leave node
// 1's entry as it was.
TEST(SsramLayout, NodesShareTheTableUntilOneWritesIt) {
  sys::Machine machine(
      test::small_machine_params(128, sys::Machine::NetKind::kIdeal));
  const msg::AddressMap map = machine.addr_map();
  const sys::Node::SsramRegion table =
      sys::Node::translation_table_region(map);
  ASSERT_EQ(table.base, 0x28000u);
  ASSERT_EQ(table.bytes, mem::BackingStore::kPageBytes);
  const mem::Addr entry = table.base + 5 * niu::XlatEntry::kBytes;
  auto read_entry = [&](sim::NodeId n) {
    return machine.node(n).niu().ssram().read_scalar<std::uint64_t>(entry);
  };
  const std::uint64_t before = read_entry(1);
  EXPECT_EQ(read_entry(0), before);
  machine.node(0).niu().ssram().write_scalar<std::uint64_t>(entry, ~before);
  EXPECT_EQ(read_entry(0), ~before);
  EXPECT_EQ(read_entry(1), before);
  EXPECT_EQ(read_entry(127), before);
}

TEST(SsramLayout, OverlapIsRejectedNamingBothRegions) {
  // The table placed at 0x0000 regardless of size, as it once was: at 128
  // nodes its 4 KiB run into the NUMA scratch slot at 0x0F00.
  std::vector<sys::Node::SsramRegion> regions(
      std::begin(sys::Node::kSsramRegions), std::end(sys::Node::kSsramRegions));
  regions.push_back({"translation table", sys::Node::kXlatBase, 4 * 128 * 8});
  try {
    sys::Node::check_ssram_layout(regions, 256 * 1024);
    ADD_FAILURE() << "overlap not rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NUMA scratch"), std::string::npos) << what;
    EXPECT_NE(what.find("translation table"), std::string::npos) << what;
  }
  // A region past the end of the bank is rejected too.
  const sys::Node::SsramRegion past[] = {{"big", 0x30000, 0x20000}};
  EXPECT_THROW(sys::Node::check_ssram_layout(past, 256 * 1024),
               std::invalid_argument);
}

}  // namespace
}  // namespace sv
