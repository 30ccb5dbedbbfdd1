// Unit tests for the conservative parallel scheduler: epoch stepping,
// sender outboxes filed at barriers, determinism across thread counts,
// exception propagation from helper and caller stripes, and constructor
// validation. Machine-level bit-identity is covered by
// parallel_equivalence_test.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/random.hpp"

namespace sv::sim {
namespace {

constexpr Tick kLookahead = 100;

std::vector<Kernel*> ptrs(std::vector<Kernel>& ks) {
  std::vector<Kernel*> out;
  for (auto& k : ks) {
    out.push_back(&k);
  }
  return out;
}

TEST(DomainMap, SequentialMapsEveryNodeToOneKernel) {
  Kernel k;
  DomainMap map(k, 4);
  EXPECT_FALSE(map.partitioned());
  EXPECT_EQ(map.nodes(), 4u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(&map.of(n), &k);
  }
}

TEST(DomainMap, PartitionedMapsNodeToItsDomain) {
  std::vector<Kernel> ks(3);
  DomainMap map(ptrs(ks));
  EXPECT_TRUE(map.partitioned());
  EXPECT_EQ(map.nodes(), 3u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(&map.of(n), &ks[n]);
  }
}

TEST(ParallelKernel, RejectsBadConfig) {
  std::vector<Kernel> ks(2);
  EXPECT_THROW(ParallelKernel({}, 1, kLookahead), std::invalid_argument);
  EXPECT_THROW(ParallelKernel(ptrs(ks), 1, 0), std::invalid_argument);
}

TEST(ParallelKernel, ClampsThreadsToDomainCount) {
  std::vector<Kernel> ks(2);
  ParallelKernel pk(ptrs(ks), 16, kLookahead);
  EXPECT_EQ(pk.threads(), 2u);
}

TEST(ParallelKernel, RunEpochAdvancesEveryDomainToTheBoundary) {
  std::vector<Kernel> ks(2);
  std::vector<Tick> fired;
  ks[0].schedule(10, [&] { fired.push_back(ks[0].now()); });
  ks[1].schedule(150, [&] { fired.push_back(ks[1].now()); });
  ParallelKernel pk(ptrs(ks), 1, kLookahead);

  pk.run_epoch();
  EXPECT_EQ(pk.now(), kLookahead - 1);
  EXPECT_EQ(fired, (std::vector<Tick>{10}));

  pk.run_epoch();
  EXPECT_EQ(pk.now(), 2 * kLookahead - 1);
  EXPECT_EQ(fired, (std::vector<Tick>{10, 150}));
  EXPECT_TRUE(pk.idle());
}

TEST(ParallelKernel, CrossDomainPostDeliversNextEpoch) {
  std::vector<Kernel> ks(2);
  Tick delivered_at = 0;
  // Domain 0 sends at t=10 with one full lookahead of latency; domain 1
  // must run it at exactly t=110 even though the post waits in domain 0's
  // outbox until the epoch barrier.
  ks[0].schedule(10, [&] {
    ks[0].post(ks[1], ks[0].now() + kLookahead, /*src=*/0, /*seq=*/1,
               [&] { delivered_at = ks[1].now(); });
  });
  ParallelKernel pk(ptrs(ks), 2, kLookahead);
  pk.run_epoch();
  EXPECT_EQ(delivered_at, 0u);  // in the outbox, not yet runnable
  pk.run_epoch();
  EXPECT_EQ(delivered_at, 110u);
}

TEST(ParallelKernel, RunEpochsUntilStopsAtPredicateBoundary) {
  std::vector<Kernel> ks(2);
  int count = 0;
  // One event per epoch for a while.
  for (Tick t = 50; t < 1000; t += kLookahead) {
    ks[1].schedule(t, [&] { ++count; });
  }
  ParallelKernel pk(ptrs(ks), 2, kLookahead);
  EXPECT_TRUE(pk.run_epochs_until([&] { return count >= 3; }, 100000));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(pk.now(), 3 * kLookahead - 1);
}

TEST(ParallelKernel, RunEpochsUntilStopsWhenIdleOrDeadline) {
  std::vector<Kernel> ks(2);
  ks[0].schedule(10, [] {});
  ParallelKernel pk(ptrs(ks), 1, kLookahead);
  // Predicate never holds; the scheduler must still stop once both domains
  // drain rather than spinning to the deadline.
  EXPECT_FALSE(pk.run_epochs_until([] { return false; }, 100000));
  EXPECT_TRUE(pk.idle());
  EXPECT_LT(pk.now(), Tick{100000});
}

TEST(ParallelKernel, IdenticalResultForEveryThreadCount) {
  // A little ping-pong network: each domain, on receipt, posts back to the
  // other with lookahead latency. The event counts and final clocks must
  // not depend on the thread count.
  auto run = [](unsigned threads) {
    std::vector<Kernel> ks(4);
    std::vector<std::uint64_t> hits(4, 0);
    std::function<void(NodeId, NodeId, int)> send =
        [&](NodeId from, NodeId to, int hops) {
          if (hops == 0) {
            return;
          }
          ks[from].post(ks[to], ks[from].now() + kLookahead, from,
                        ++hits[from], [&, from, to, hops] {
                          ++hits[to];
                          send(to, from, hops - 1);
                        });
        };
    for (NodeId n = 0; n < 4; ++n) {
      ks[n].schedule(n + 1, [&, n] {
        send(n, static_cast<NodeId>((n + 1) % 4), 8);
      });
    }
    ParallelKernel pk(ptrs(ks), threads, kLookahead);
    EXPECT_TRUE(pk.run_epochs_until(
        [&] {
          std::uint64_t total = 0;
          for (const auto h : hits) {
            total += h;
          }
          return total >= 4 * 12;
        },
        1000000));
    std::vector<std::uint64_t> result = hits;
    for (const auto& k : ks) {
      result.push_back(k.events_executed());
      result.push_back(k.now());
    }
    result.push_back(pk.now());
    return result;
  };
  const auto seq = run(1);
  EXPECT_EQ(run(2), seq);
  EXPECT_EQ(run(4), seq);
}

TEST(ParallelKernel, WorkerExceptionSurfacesAtBarrier) {
  std::vector<Kernel> ks(2);
  ks[1].schedule(10, [] { throw std::runtime_error("boom"); });
  ParallelKernel pk(ptrs(ks), 2, kLookahead);
  EXPECT_THROW(pk.run_epoch(), std::runtime_error);
}

TEST(ParallelKernel, CallerStripeExceptionWaitsForHelpers) {
  // Domain 0 runs on the calling thread and throws at once; domain 1 runs
  // on the helper and is still busy. run_epoch must not rethrow until the
  // helper's stripe has finished: its state is read below without any
  // synchronization of the test's own (a data race for TSan otherwise).
  std::vector<Kernel> ks(2);
  bool helper_done = false;
  ks[0].schedule(10, [] { throw std::runtime_error("caller stripe"); });
  ks[1].schedule(20, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  ks[1].schedule(90, [&] { helper_done = true; });
  {
    ParallelKernel pk(ptrs(ks), 2, kLookahead);
    EXPECT_THROW(pk.run_epoch(), std::runtime_error);
    EXPECT_TRUE(helper_done);
    EXPECT_EQ(ks[1].now(), kLookahead - 1);
  }  // and the helper exits cleanly with the kernel
}

/// Seeded random cross posts among 8 domains: each domain sends on a
/// jittered local timer, to a random destination (itself included) at a
/// random distance of at least one lookahead, and every delivery replies
/// with probability 1/2. Returns each domain's delivery log: (tick,
/// dispatch sequence, source, message sequence, value) per message.
std::vector<std::vector<std::uint64_t>> stress_logs(unsigned threads) {
  constexpr std::size_t kDomains = 8;
  constexpr Tick kEnd = 2000 * kLookahead;  // at least 2 000 epochs
  std::vector<Kernel> ks(kDomains);
  std::vector<Rng> rng;
  for (std::size_t d = 0; d < kDomains; ++d) {
    rng.emplace_back(0x5EED0000 + d);
  }
  std::vector<std::uint64_t> sent(kDomains, 0);
  std::vector<std::vector<std::uint64_t>> logs(kDomains);

  std::function<void(std::size_t)> send = [&](std::size_t from) {
    Kernel& k = ks[from];
    const auto to = static_cast<std::size_t>(rng[from].below(kDomains));
    const Tick when = k.now() + kLookahead + rng[from].below(3 * kLookahead);
    const std::uint64_t seq = ++sent[from];
    const std::uint64_t value = rng[from].next();
    k.post(ks[to], when, static_cast<std::uint32_t>(from), seq,
           [&, from, to, seq, value] {
             const std::array<std::uint64_t, 5> rec{
                 ks[to].now(), ks[to].current_seq(), from, seq, value};
             logs[to].insert(logs[to].end(), rec.begin(), rec.end());
             if (rng[to].below(2) == 0) {
               send(to);
             }
           });
  };
  std::function<void(std::size_t)> tick = [&](std::size_t d) {
    send(d);
    if (ks[d].now() < kEnd) {
      ks[d].schedule(1 + rng[d].below(kLookahead), [&tick, d] { tick(d); });
    }
  };
  for (std::size_t d = 0; d < kDomains; ++d) {
    ks[d].schedule(d + 1, [&tick, d] { tick(d); });
  }
  ParallelKernel pk(ptrs(ks), threads, kLookahead);
  EXPECT_FALSE(pk.run_epochs_until([] { return false; }, kEnd));
  EXPECT_GE(pk.now(), kEnd - 1);
  return logs;
}

TEST(ParallelKernel, StressRandomCrossPosts) {
  const auto want = stress_logs(1);
  std::size_t messages = 0;
  for (const auto& log : want) {
    messages += log.size() / 5;
  }
  EXPECT_GT(messages, 2000u * 8u);
  for (unsigned threads = 2; threads <= 4; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(stress_logs(threads), want);
  }
}

}  // namespace
}  // namespace sv::sim
