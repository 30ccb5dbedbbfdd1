// Arctic network tests: links (credits, serialization), routers, fat-tree
// topology/routing, ordering and priority properties.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "net/fat_tree.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "sim/random.hpp"
#include "tests/test_util.hpp"

namespace sv::net {
namespace {

Packet make_packet(sim::NodeId src, sim::NodeId dest, std::size_t bytes,
                   std::uint8_t prio = kPriorityLow, QueueId q = 1) {
  Packet p;
  p.src = src;
  p.dest = dest;
  p.dest_queue = q;
  p.priority = prio;
  p.payload.resize(bytes);
  return p;
}

TEST(LinkTest, SerializationTimeMatchesBandwidth) {
  sim::Kernel kernel;
  Link link(kernel, "l", {});
  std::vector<sim::Tick> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(kernel.now()); });

  // 88-byte payload -> 96 wire bytes -> 48 cycles at 2 B/cycle, + 3 cycles
  // propagation: arrival at 51 link cycles.
  test::run_co(kernel, link.send(make_packet(0, 1, 88)));
  kernel.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], (48 + 3) * kLinkClock.period());
  EXPECT_EQ(link.bytes_sent().value(), 96u);
}

TEST(LinkTest, CreditsBlockUntilReturned) {
  sim::Kernel kernel;
  Link::Params lp;
  lp.credits_per_priority = 1;
  Link link(kernel, "l", lp);
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });

  sim::spawn([](Link* l) -> sim::Co<void> {
    co_await l->send(make_packet(0, 1, 8));
    co_await l->send(make_packet(0, 1, 8));  // blocks on credit
  }(&link));
  kernel.run();
  EXPECT_EQ(delivered, 1);  // second send stuck
  link.return_credit(kPriorityLow);
  kernel.run();
  EXPECT_EQ(delivered, 2);
}

TEST(LinkTest, PrioritiesHaveIndependentCredits) {
  sim::Kernel kernel;
  Link::Params lp;
  lp.credits_per_priority = 1;
  Link link(kernel, "l", lp);
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });

  sim::spawn([](Link* l) -> sim::Co<void> {
    co_await l->send(make_packet(0, 1, 8, kPriorityLow));
    // Low credits exhausted, but high proceeds.
    co_await l->send(make_packet(0, 1, 8, kPriorityHigh));
  }(&link));
  kernel.run();
  EXPECT_EQ(delivered, 2);
}

TEST(IdealNetworkTest, DeliversAfterFixedLatency) {
  sim::Kernel kernel;
  IdealNetwork net({&kernel, &kernel}, "net", {.latency = 1000});
  std::vector<std::pair<sim::Tick, std::uint64_t>> got;
  net.set_endpoint(1, [&](Packet&& pkt) {
    got.emplace_back(kernel.now(), pkt.serial);
  });
  test::run_co(kernel, [](IdealNetwork* n) -> sim::Co<void> {
    co_await n->inject(make_packet(0, 1, 8));
    co_await n->inject(make_packet(0, 1, 8));
  }(&net));
  kernel.run();
  ASSERT_EQ(got.size(), 2u);
  // Serials are namespaced by source ((src + 1) << 40) and sequential
  // within it, starting at 1: 0 stays reserved for "no flow id assigned".
  const std::uint64_t ns = std::uint64_t{1} << 40;
  EXPECT_EQ(got[0].second, ns | 1u);
  EXPECT_EQ(got[1].second, ns | 2u);
  EXPECT_LT(got[0].first, got[1].first);  // source serialization
  EXPECT_EQ(net.packets_delivered(), 2u);
}

TEST(FatTreeTest, TopologyShape) {
  sim::Kernel kernel;
  FatTreeNetwork::Params p;
  p.nodes = 16;
  p.radix = 4;
  FatTreeNetwork net(kernel, "net", p);
  EXPECT_EQ(net.levels(), 2u);
  EXPECT_EQ(net.router_count(), 8u);  // 2 levels x 4 routers
  // Same leaf: 1 hop. Cross-tree: up + top + down = 3.
  EXPECT_EQ(net.hops(0, 1), 1u);
  EXPECT_EQ(net.hops(0, 4), 3u);
  EXPECT_EQ(net.hops(0, 15), 3u);
}

TEST(FatTreeTest, SingleLevelForSmallClusters) {
  sim::Kernel kernel;
  FatTreeNetwork::Params p;
  p.nodes = 4;
  p.radix = 4;
  FatTreeNetwork net(kernel, "net", p);
  EXPECT_EQ(net.levels(), 1u);
  EXPECT_EQ(net.router_count(), 1u);
  EXPECT_EQ(net.hops(0, 3), 1u);
}

TEST(FatTreeTest, DeliversAcrossTheTree) {
  sim::Kernel kernel;
  FatTreeNetwork::Params p;
  p.nodes = 16;
  p.radix = 4;
  FatTreeNetwork net(kernel, "net", p);

  std::map<sim::NodeId, std::vector<Packet>> got;
  for (sim::NodeId n = 0; n < 16; ++n) {
    net.set_endpoint(n, [&got, &net, n](Packet&& pkt) {
      got[n].push_back(std::move(pkt));
      net.consume_done(n, got[n].back().priority);
    });
  }
  test::run_co(kernel, [](FatTreeNetwork* n) -> sim::Co<void> {
    for (sim::NodeId d = 0; d < 16; ++d) {
      co_await n->inject(make_packet(0, d, 16));
    }
  }(&net));
  kernel.run();
  for (sim::NodeId d = 0; d < 16; ++d) {
    ASSERT_EQ(got[d].size(), 1u) << "node " << d;
    EXPECT_EQ(got[d][0].src, 0u);
  }
}

TEST(FatTreeTest, SelfSendWorks) {
  sim::Kernel kernel;
  FatTreeNetwork::Params p;
  p.nodes = 8;
  p.radix = 4;
  FatTreeNetwork net(kernel, "net", p);
  int got = 0;
  for (sim::NodeId n = 0; n < 8; ++n) {
    net.set_endpoint(n, [&got, &net, n](Packet&& pkt) {
      ++got;
      net.consume_done(n, pkt.priority);
    });
  }
  test::run_co(kernel, net.inject(make_packet(3, 3, 8)));
  kernel.run();
  EXPECT_EQ(got, 1);
}

TEST(FatTreeTest, HighPriorityOvertakesQueuedLow) {
  sim::Kernel kernel;
  FatTreeNetwork::Params p;
  p.nodes = 4;
  p.radix = 4;
  p.link.credits_per_priority = 1;
  FatTreeNetwork net(kernel, "net", p);

  std::vector<std::uint8_t> arrival_order;
  std::vector<std::pair<sim::NodeId, std::uint8_t>> pending_credits;
  net.set_endpoint(1, [&](Packet&& pkt) {
    arrival_order.push_back(pkt.priority);
    // Withhold credits so low packets congest the ejection port.
    pending_credits.emplace_back(1, pkt.priority);
  });
  for (sim::NodeId n : {0u, 2u, 3u}) {
    net.set_endpoint(n, [&net, n](Packet&& pkt) {
      net.consume_done(n, pkt.priority);
    });
  }

  sim::spawn([](FatTreeNetwork* n) -> sim::Co<void> {
    // Flood low priority, then send one high: high must not arrive last.
    for (int i = 0; i < 6; ++i) {
      co_await n->inject(make_packet(0, 1, 80, kPriorityLow));
    }
    co_await n->inject(make_packet(0, 1, 8, kPriorityHigh));
  }(&net));
  // Drain, returning withheld ejection credits one batch at a time so the
  // router output stage must re-arbitrate between priorities.
  for (int rounds = 0; rounds < 100 && arrival_order.size() < 7; ++rounds) {
    kernel.run();
    for (auto [node, prio] : pending_credits) {
      net.consume_done(node, prio);
    }
    pending_credits.clear();
  }
  kernel.run();
  ASSERT_EQ(arrival_order.size(), 7u);
  // The high-priority packet must overtake at least some queued low ones.
  std::size_t high_pos = 0;
  for (std::size_t i = 0; i < arrival_order.size(); ++i) {
    if (arrival_order[i] == kPriorityHigh) {
      high_pos = i;
    }
  }
  EXPECT_LT(high_pos, arrival_order.size() - 1);
}

/// Property: random traffic on random fat trees is delivered completely,
/// without duplication, and in per-(src,dst,priority) FIFO order.
struct FatTreeParam {
  std::size_t nodes;
  unsigned radix;
  unsigned seed;
};

class FatTreeProperty : public ::testing::TestWithParam<FatTreeParam> {};

TEST_P(FatTreeProperty, CompleteOrderedDelivery) {
  const auto param = GetParam();
  sim::Kernel kernel;
  FatTreeNetwork::Params p;
  p.nodes = param.nodes;
  p.radix = param.radix;
  FatTreeNetwork net(kernel, "net", p);

  struct Key {
    sim::NodeId src;
    std::uint8_t prio;
    bool operator<(const Key& o) const {
      return std::tie(src, prio) < std::tie(o.src, o.prio);
    }
  };
  // Per (dst, src, prio): sequence numbers seen, must be increasing.
  std::map<sim::NodeId, std::map<Key, std::vector<std::uint32_t>>> seen;
  std::size_t delivered = 0;

  for (sim::NodeId n = 0; n < param.nodes; ++n) {
    net.set_endpoint(n, [&, n](Packet&& pkt) {
      std::uint32_t seq = 0;
      std::memcpy(&seq, pkt.payload.data(), 4);
      seen[n][Key{pkt.src, pkt.priority}].push_back(seq);
      ++delivered;
      net.consume_done(n, pkt.priority);
    });
  }

  constexpr int kPerSource = 40;
  std::size_t injected = 0;
  for (sim::NodeId src = 0; src < param.nodes; ++src) {
    sim::spawn([](FatTreeNetwork* net_, sim::NodeId s, std::size_t nodes,
                  unsigned seed, std::size_t* count) -> sim::Co<void> {
      sim::Rng rng(seed + s * 977);
      std::uint32_t seq_per_key[64][2] = {};
      for (int i = 0; i < kPerSource; ++i) {
        const auto dst = static_cast<sim::NodeId>(rng.below(nodes));
        const auto prio =
            static_cast<std::uint8_t>(rng.chance(0.3) ? 1 : 0);
        Packet pkt = make_packet(s, dst, 8 + rng.below(80), prio);
        std::uint32_t seq = seq_per_key[dst][prio]++;
        std::memcpy(pkt.payload.data(), &seq, 4);
        co_await net_->inject(std::move(pkt));
        ++*count;
      }
    }(&net, src, param.nodes, param.seed, &injected));
  }
  kernel.run();

  EXPECT_EQ(injected, param.nodes * kPerSource);
  EXPECT_EQ(delivered, injected);
  for (const auto& [dst, by_key] : seen) {
    for (const auto& [key, seqs] : by_key) {
      for (std::size_t i = 1; i < seqs.size(); ++i) {
        EXPECT_EQ(seqs[i], seqs[i - 1] + 1)
            << "out of order: dst=" << dst << " src=" << key.src
            << " prio=" << int(key.prio);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, FatTreeProperty,
    ::testing::Values(FatTreeParam{2, 2, 1}, FatTreeParam{4, 2, 2},
                      FatTreeParam{8, 2, 3}, FatTreeParam{4, 4, 4},
                      FatTreeParam{8, 4, 5}, FatTreeParam{16, 4, 6},
                      FatTreeParam{32, 4, 7}, FatTreeParam{13, 4, 8},
                      FatTreeParam{5, 2, 9}));

}  // namespace
}  // namespace sv::net
