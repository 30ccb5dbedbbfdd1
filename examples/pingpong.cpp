// MPI example: ping-pong latency, bandwidth, barrier and allreduce over
// app::Comm, the runtime's MPI interface (the "MPI library that presents
// the usual interface but uses the underlying NIU support" of paper layer
// 0). Every node runs one rank of the same program on its aP.
//
//   $ ./pingpong [rounds]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "app/runtime.hpp"
#include "sys/machine.hpp"

using namespace sv;

namespace {

constexpr std::uint32_t kPing = 1;
constexpr std::uint32_t kPong = 2;
constexpr std::uint32_t kBulk = 3;
constexpr std::uint32_t kAck = 4;

std::vector<std::byte> u64_bytes(std::uint64_t v) {
  std::vector<std::byte> out(sizeof v);
  std::memcpy(out.data(), &v, sizeof v);
  return out;
}

std::uint64_t u64_of(const app::Inbound& m) {
  std::uint64_t v = 0;
  std::memcpy(&v, m.data.data(), std::min(sizeof v, m.data.size()));
  return v;
}

double us(sim::Tick t) { return static_cast<double>(t) / 1e6; }

/// Every rank's program; rank 0 reports. Failed checks count in *failures.
sim::Co<void> program(app::Comm& c, int rounds, int* failures) {
  auto& kernel = c.kernel();

  // Ping-pong between ranks 0 and 1: 8-byte payloads, echoed back.
  const sim::Tick t0 = kernel.now();
  for (int i = 0; i < rounds; ++i) {
    if (c.rank() == 0) {
      co_await c.send(1, kPing, u64_bytes(i));
      if (u64_of(co_await c.recv(1, kPong)) != static_cast<std::uint64_t>(i)) {
        ++*failures;
      }
    } else if (c.rank() == 1) {
      const app::Inbound m = co_await c.recv(0, kPing);
      co_await c.send(0, kPong, m.data);
    }
  }
  if (c.rank() == 0) {
    const sim::Tick rtt = (kernel.now() - t0) / rounds;
    std::printf("ping-pong:   %d rounds, round trip %.2f us (one-way ~%.2f)\n",
                rounds, us(rtt), us(rtt) / 2);
  }

  // Bandwidth: one large fragmented send, acknowledged once it arrived.
  std::vector<std::byte> big(64 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 7);
  }
  if (c.rank() == 0) {
    const sim::Tick t1 = kernel.now();
    co_await c.send(1, kBulk, big);
    (void)co_await c.recv(1, kAck);
    const sim::Tick dur = kernel.now() - t1;
    std::printf("bandwidth:   64 KiB in %.2f us = %.1f MB/s "
                "(fragmented Basic messages)\n",
                us(dur),
                static_cast<double>(big.size()) /
                    (static_cast<double>(dur) * 1e-12) / 1e6);
  } else if (c.rank() == 1) {
    if ((co_await c.recv(0, kBulk)).data != big) {
      ++*failures;
    }
    co_await c.send(0, kAck, u64_bytes(1));
  }

  // Collectives.
  const sim::Tick t2 = kernel.now();
  co_await c.barrier();
  if (c.rank() == 0) {
    std::printf("barrier:     %.2f us across %u ranks\n",
                us(kernel.now() - t2), static_cast<unsigned>(c.size()));
  }

  double sum[1] = {1.0};
  co_await c.allreduce(sum, app::ReduceOp::kSum);
  if (sum[0] != c.size()) {
    ++*failures;
  }
  if (c.rank() == 0) {
    std::printf("allreduce:   sum of ones = %.0f (expected %u)\n", sum[0],
                static_cast<unsigned>(c.size()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 50;

  sys::Machine::Params params;
  params.nodes = 4;
  sys::Machine machine(params);
  std::printf("MPI-lite on %zu nodes (Arctic fat tree)\n\n", machine.size());

  int failures = 0;
  app::World world(machine, {});
  world.launch(
      [&](app::Comm& c) { return program(c, rounds, &failures); });
  if (!machine.run_epochs_until([&] { return world.done(); },
                                machine.now() + 2000 * sim::kMillisecond)) {
    std::printf("timed out!\n");
    return 1;
  }
  if (failures != 0) {
    std::printf("%d checks FAILED\n", failures);
    return 1;
  }
  return 0;
}
