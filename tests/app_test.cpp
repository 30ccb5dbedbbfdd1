// Functional tests for the app runtime: tag matching, wildcards,
// fragmentation, nonblocking completion, and the collectives against
// host-computed references — each core case swept over all three
// transports. These run sequentially (threads=0); cross-thread
// byte-identity is app_equivalence_test's job.
#include "tests/test_util.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace sv::test {
namespace {

using app::Comm;
using app::Inbound;
using app::ReduceOp;
using app::TransportKind;

constexpr TransportKind kAllTransports[] = {
    TransportKind::kMsg, TransportKind::kShm, TransportKind::kReliable};

const char* transport_name(TransportKind t) {
  switch (t) {
    case TransportKind::kMsg:
      return "msg";
    case TransportKind::kShm:
      return "shm";
    case TransportKind::kReliable:
      return "reliable";
  }
  return "?";
}

/// Build a small machine, launch `program` and drive it to completion.
/// Returns the world's aggregate transport stats for extra assertions.
app::TransportStats run_program(TransportKind tk, std::size_t nodes,
                                std::size_t nranks,
                                const app::World::Program& program) {
  auto mp = small_machine_params(nodes, sys::Machine::NetKind::kIdeal);
  sys::Machine machine(mp);
  app::World::Params wp;
  wp.nranks = nranks;
  wp.transport = tk;
  app::World world(machine, wp);
  world.launch(program);
  EXPECT_TRUE(machine.run_epochs_until(
      [&] { return world.done(); }, machine.now() + 2000 * sim::kMillisecond))
      << "program timed out at " << machine.now() << " ps";
  app::TransportStats total;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    const auto& s = world.transport(n).stats();
    total.msgs_sent.inc(s.msgs_sent.value());
    total.frames_sent.inc(s.frames_sent.value());
    total.bytes_sent.inc(s.bytes_sent.value());
    total.msgs_delivered.inc(s.msgs_delivered.value());
    total.local_delivered.inc(s.local_delivered.value());
  }
  return total;
}

std::vector<std::byte> tagged_payload(std::uint32_t tag, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((tag * 7 + i * 13 + 1) & 0xFF);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Point-to-point.
// ---------------------------------------------------------------------------

sim::Co<void> tag_matching_program(Comm& c, std::uint64_t* mismatches) {
  if (c.rank() == 0) {
    co_await c.send(1, 7, tagged_payload(7, 24));
    co_await c.send(1, 8, tagged_payload(8, 24));
  } else {
    // Receive in the opposite order the sender posted: tag matching must
    // hold back the tag-7 message while tag 8 is awaited.
    const Inbound m8 = co_await c.recv(0, 8);
    const Inbound m7 = co_await c.recv(0, 7);
    if (m8.data != tagged_payload(8, 24) || m8.tag != 8) {
      ++*mismatches;
    }
    if (m7.data != tagged_payload(7, 24) || m7.tag != 7) {
      ++*mismatches;
    }
  }
}

TEST(AppPointToPoint, TagMatchingReordersDelivery) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t mismatches = 0;
    run_program(tk, 2, 2, [&mismatches](Comm& c) -> sim::Co<void> {
      co_await tag_matching_program(c, &mismatches);
    });
    EXPECT_EQ(mismatches, 0u);
  }
}

sim::Co<void> wildcard_program(Comm& c, std::vector<std::uint64_t>* seen) {
  if (c.rank() == 0) {
    for (std::uint16_t i = 1; i < c.size(); ++i) {
      const Inbound m = co_await c.recv(app::kAnyRank, app::kAnyTag);
      ++(*seen)[m.src_rank];
      if (m.data != tagged_payload(m.src_rank, 16)) {
        seen->back() = 999;  // sentinel slot flags payload corruption
      }
    }
  } else {
    co_await c.send(0, c.rank(), tagged_payload(c.rank(), 16));
  }
}

TEST(AppPointToPoint, WildcardRecvAcceptsEverySource) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::vector<std::uint64_t> seen(5, 0);  // slots 0..3 ranks, 4 sentinel
    run_program(tk, 4, 4, [&seen](Comm& c) -> sim::Co<void> {
      co_await wildcard_program(c, &seen);
    });
    EXPECT_EQ(seen[1], 1u);
    EXPECT_EQ(seen[2], 1u);
    EXPECT_EQ(seen[3], 1u);
    EXPECT_EQ(seen[4], 0u);
  }
}

sim::Co<void> fragment_program(Comm& c, std::size_t bytes,
                               std::uint64_t* mismatches) {
  if (c.rank() == 0) {
    co_await c.send(1, 3, tagged_payload(3, bytes));
    co_await c.send(1, 4, {});  // zero-length message
  } else {
    const Inbound big = co_await c.recv(0, 3);
    const Inbound empty = co_await c.recv(0, 4);
    if (big.data != tagged_payload(3, bytes)) {
      ++*mismatches;
    }
    if (!empty.data.empty()) {
      ++*mismatches;
    }
  }
}

/// Application bytes one frame carries: the mechanism's payload less the
/// 16-byte WireHeader.
std::size_t frame_payload(TransportKind t) {
  switch (t) {
    case TransportKind::kMsg:
      return 72;
    case TransportKind::kShm:
      return 104;
    case TransportKind::kReliable:
      return 56;
  }
  return 0;
}

TEST(AppPointToPoint, FragmentsAndReassemblesLargeMessages) {
  // 1000 bytes spans many frames on every transport; exactly 1x and 2x a
  // frame's payload, and 2x plus one byte, sit on fragment boundaries.
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    const std::size_t cap = frame_payload(tk);
    for (const std::size_t bytes : {std::size_t{1000}, cap, 2 * cap,
                                    2 * cap + 1}) {
      SCOPED_TRACE(bytes);
      std::uint64_t mismatches = 0;
      const auto stats = run_program(
          tk, 2, 2, [&mismatches, bytes](Comm& c) -> sim::Co<void> {
            co_await fragment_program(c, bytes, &mismatches);
          });
      EXPECT_EQ(mismatches, 0u);
      EXPECT_EQ(stats.msgs_delivered.value(), 2u);
      // One frame per started frame payload, plus the zero-length one's.
      EXPECT_EQ(stats.frames_sent.value(), (bytes + cap - 1) / cap + 1);
    }
  }
}

sim::Co<void> nonblocking_program(Comm& c, std::uint64_t* failures) {
  constexpr std::uint32_t kTags[] = {10, 11, 12, 13};
  if (c.rank() == 0) {
    std::vector<app::Request> reqs;
    for (const auto t : kTags) {
      reqs.push_back(c.isend(1, t, tagged_payload(t, 40)));
    }
    for (auto& r : reqs) {
      (void)co_await c.wait(r);
      if (!r.done()) {
        ++*failures;
      }
    }
  } else {
    // Post the receives in reverse tag order, redeem in posting order:
    // each wait() must yield the message matching its own tag, however
    // the frames interleaved on the wire.
    std::vector<app::Request> reqs;
    for (auto it = std::rbegin(kTags); it != std::rend(kTags); ++it) {
      reqs.push_back(c.irecv(0, *it));
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::uint32_t want = kTags[3 - i];
      const Inbound m = co_await c.wait(reqs[i]);
      if (m.tag != want || m.data != tagged_payload(want, 40)) {
        ++*failures;
      }
    }
  }
}

TEST(AppPointToPoint, NonblockingRequestsCompleteIndependently) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t failures = 0;
    run_program(tk, 2, 2, [&failures](Comm& c) -> sim::Co<void> {
      co_await nonblocking_program(c, &failures);
    });
    EXPECT_EQ(failures, 0u);
  }
}

// Back-to-back nonblocking sends to the same peer: the regression case
// for completion paths that assumed one outstanding operation per
// endpoint (satellite: endpoint queue gates). All eight messages must
// arrive intact and in tag-matchable form.
sim::Co<void> burst_program(Comm& c, std::uint64_t* failures) {
  constexpr std::size_t kBurst = 8;
  if (c.rank() == 0) {
    std::vector<app::Request> reqs;
    for (std::size_t i = 0; i < kBurst; ++i) {
      reqs.push_back(c.isend(1, static_cast<std::uint32_t>(100 + i),
                             tagged_payload(static_cast<std::uint32_t>(i),
                                            120)));
    }
    for (auto& r : reqs) {
      (void)co_await c.wait(r);
    }
  } else {
    for (std::size_t i = 0; i < kBurst; ++i) {
      const Inbound m =
          co_await c.recv(0, static_cast<std::uint32_t>(100 + i));
      if (m.data != tagged_payload(static_cast<std::uint32_t>(i), 120)) {
        ++*failures;
      }
    }
  }
}

TEST(AppPointToPoint, BackToBackNonblockingSendsAllArrive) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t failures = 0;
    run_program(tk, 2, 2, [&failures](Comm& c) -> sim::Co<void> {
      co_await burst_program(c, &failures);
    });
    EXPECT_EQ(failures, 0u);
  }
}

// ---------------------------------------------------------------------------
// Collectives.
// ---------------------------------------------------------------------------

TEST(AppCollective, BarrierHoldsEveryoneBack) {
  // Rank 0 burns simulated time before entering the barrier; no rank may
  // leave it earlier than that instant.
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::vector<sim::Tick> after(4, 0);
    std::vector<sim::Tick> straggler_ready(1, 0);
    auto prog = [&after, &straggler_ready](Comm& c) -> sim::Co<void> {
      if (c.rank() == 0) {
        co_await c.compute(2'000'000);
        straggler_ready[0] = c.kernel().now();
        for (int round = 0; round < 3; ++round) {
          co_await c.barrier();
        }
        after[0] = c.kernel().now();
      } else {
        for (int round = 0; round < 3; ++round) {
          co_await c.barrier();
        }
        after[c.rank()] = c.kernel().now();
      }
    };
    run_program(tk, 4, 4, prog);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_GE(after[r], straggler_ready[0]) << "rank " << r;
    }
  }
}

sim::Co<void> allreduce_program(Comm& c, std::uint64_t* errors) {
  const std::size_t n = c.size();
  constexpr std::size_t kElems = 10;
  std::vector<double> v(kElems);

  // kSum against the closed-form reference (ring order differs from the
  // naive order, so compare with a relative tolerance).
  for (std::size_t i = 0; i < kElems; ++i) {
    v[i] = static_cast<double>((c.rank() + 1) * (i + 2));
  }
  co_await c.allreduce(v, ReduceOp::kSum);
  for (std::size_t i = 0; i < kElems; ++i) {
    const double ref =
        static_cast<double>((i + 2) * n * (n + 1)) / 2.0;
    if (std::abs(v[i] - ref) > 1e-9 * std::max(1.0, std::abs(ref))) {
      ++*errors;
    }
  }

  // kMin / kMax are order-insensitive: exact equality required.
  for (std::size_t i = 0; i < kElems; ++i) {
    v[i] = static_cast<double>((c.rank() * 7 + i * 3) % 11);
  }
  std::vector<double> mx = v;
  co_await c.allreduce(v, ReduceOp::kMin);
  co_await c.allreduce(mx, ReduceOp::kMax);
  for (std::size_t i = 0; i < kElems; ++i) {
    double lo = 1e300;
    double hi = -1e300;
    for (std::size_t r = 0; r < n; ++r) {
      const double x = static_cast<double>((r * 7 + i * 3) % 11);
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    if (v[i] != lo || mx[i] != hi) {
      ++*errors;
    }
  }
}

TEST(AppCollective, AllreduceMatchesHostReference) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t errors = 0;
    run_program(tk, 4, 4, [&errors](Comm& c) -> sim::Co<void> {
      co_await allreduce_program(c, &errors);
    });
    EXPECT_EQ(errors, 0u);
  }
}

sim::Co<void> bcast_program(Comm& c, std::uint64_t* errors) {
  constexpr std::uint16_t kRoot = 2;
  std::vector<std::byte> buf(100);
  if (c.rank() == kRoot) {
    buf = tagged_payload(55, 100);
  }
  co_await c.bcast(kRoot, buf);
  if (buf != tagged_payload(55, 100)) {
    ++*errors;
  }
}

TEST(AppCollective, BcastFromNonzeroRoot) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t errors = 0;
    run_program(tk, 4, 4, [&errors](Comm& c) -> sim::Co<void> {
      co_await bcast_program(c, &errors);
    });
    EXPECT_EQ(errors, 0u);
  }
}

sim::Co<void> reduce_program(Comm& c, std::uint64_t* errors) {
  constexpr std::uint16_t kRoot = 1;
  const std::size_t n = c.size();
  std::vector<double> v(8);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(c.rank() + 1) * static_cast<double>(i + 1);
  }
  co_await c.reduce(kRoot, v, ReduceOp::kSum);
  if (c.rank() == kRoot) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double ref =
          static_cast<double>((i + 1) * n * (n + 1)) / 2.0;
      if (std::abs(v[i] - ref) > 1e-9 * std::max(1.0, std::abs(ref))) {
        ++*errors;
      }
    }
  }
}

TEST(AppCollective, ReduceToNonzeroRoot) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t errors = 0;
    run_program(tk, 4, 4, [&errors](Comm& c) -> sim::Co<void> {
      co_await reduce_program(c, &errors);
    });
    EXPECT_EQ(errors, 0u);
  }
}

// ---------------------------------------------------------------------------
// Rank placement.
// ---------------------------------------------------------------------------

sim::Co<void> ring_program(Comm& c, std::uint64_t* failures) {
  const std::uint16_t n = c.size();
  const auto right = static_cast<std::uint16_t>((c.rank() + 1) % n);
  const auto left = static_cast<std::uint16_t>((c.rank() + n - 1) % n);
  const app::Request r = c.irecv(left, 9);
  co_await c.send(right, 9, tagged_payload(c.rank(), 32));
  const Inbound m = co_await c.wait(r);
  if (m.src_rank != left || m.data != tagged_payload(left, 32)) {
    ++*failures;
  }
}

TEST(AppWorld, MultipleRanksPerNodeUseLocalDelivery) {
  // Round-robin placement puts ranks 0 and 2 on node 0: rank 0 -> rank 2
  // is a same-node message (short-circuited), rank 0 -> rank 1 crosses.
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t failures = 0;
    const auto stats =
        run_program(tk, 2, 4, [&failures](Comm& c) -> sim::Co<void> {
          if (c.rank() == 0) {
            co_await c.send(2, 6, tagged_payload(6, 16));  // same node
            co_await c.send(1, 6, tagged_payload(6, 16));  // cross node
          } else if (c.rank() == 1 || c.rank() == 2) {
            const Inbound m = co_await c.recv(0, 6);
            if (m.data != tagged_payload(6, 16)) {
              ++failures;
            }
          }
          co_return;
        });
    EXPECT_EQ(failures, 0u);
    EXPECT_EQ(stats.local_delivered.value(), 1u);
    EXPECT_EQ(stats.msgs_delivered.value(), 2u);
  }
}

TEST(AppWorld, RingAcrossFourRanksOnTwoNodes) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    std::uint64_t failures = 0;
    run_program(tk, 2, 4, [&failures](Comm& c) -> sim::Co<void> {
      co_await ring_program(c, &failures);
    });
    EXPECT_EQ(failures, 0u);
  }
}

// ---------------------------------------------------------------------------
// Shipped applications (smoke; equivalence sweeps live elsewhere).
// ---------------------------------------------------------------------------

TEST(AppPrograms, StencilRunsCleanOnEveryTransport) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    const auto res = run_machine_and_collect_stats(
        {"app.stencil", {std::string("transport=") + transport_name(tk)}});
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.app.errors, 0u);
    EXPECT_EQ(res.app.ops, 4u * 4u);  // iters summed over 4 ranks
    EXPECT_GT(res.app.checksum, 0.0);
  }
}

TEST(AppPrograms, AllreduceSweepValidatesAgainstHost) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    const auto res = run_machine_and_collect_stats(
        {"app.allreduce", {std::string("transport=") + transport_name(tk)}});
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.app.errors, 0u);
    EXPECT_GT(res.app.ops, 0u);
  }
}

TEST(AppPrograms, KvServiceAnswersEveryRequest) {
  for (const auto tk : kAllTransports) {
    SCOPED_TRACE(transport_name(tk));
    const auto res = run_machine_and_collect_stats(
        {"app.kv", {std::string("transport=") + transport_name(tk),
                    "requests=24"}});
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.app.errors, 0u);
    // Clients and servers both count each request: 3 clients x 24, twice.
    EXPECT_EQ(res.app.ops, 2u * 24u * 3u);
  }
}

// ---------------------------------------------------------------------------
// Fault matrix: the applications must run to completion, with clean
// results, over the reliable transport on a lossy network. (msg and shm
// offer no delivery guarantee, so only reliable is asserted here.)
// ---------------------------------------------------------------------------

fault::Plan lossy_plan(std::uint64_t seed) {
  fault::Plan p;
  p.seed = seed;
  p.drop_rate = 0.05;
  p.corrupt_rate = 0.02;
  return p;
}

/// `app`, shrunk by `args`, over the reliable transport at two fault seeds.
void run_app_under_faults(const std::string& app,
                          std::vector<std::string> args) {
  args.push_back("transport=reliable");
  for (const std::uint64_t seed : {1ull, 99ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunSpec spec(app, args);
    spec.fault = lossy_plan(seed);
    const auto res = run_machine_and_collect_stats(spec);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.app.errors, 0u);
    EXPECT_GT(res.app.ops, 0u);
  }
}

TEST(AppFaultMatrix, StencilCompletesOverLossyReliable) {
  run_app_under_faults("app.stencil", {"nx=8", "ny=8", "iters=2"});
}

TEST(AppFaultMatrix, AllreduceCompletesOverLossyReliable) {
  run_app_under_faults("app.allreduce", {"max_elems=16", "iters=1"});
}

TEST(AppFaultMatrix, KvCompletesOverLossyReliable) {
  run_app_under_faults("app.kv", {"requests=8"});
}

}  // namespace
}  // namespace sv::test
