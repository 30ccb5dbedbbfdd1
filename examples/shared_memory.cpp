// Shared-memory example: a parallel sum over an S-COMA shared array on a
// four-node machine, with message barriers — message passing and shared
// memory coexisting on the same NIU, which is the platform's point.
//
//   $ ./shared_memory
//
// Each rank of an app::World writes its partition of a shared array
// through the S-COMA region (its local DRAM acts as an L3 cache; firmware
// runs the coherence protocol), then rank 0 reads the whole array —
// pulling remote lines on demand — and checks the total. A NUMA-window
// demo follows: the same pattern with uncached remote accesses and no
// caching. The barriers are app::Comm's, over Basic messages.
#include <cstdio>

#include "app/runtime.hpp"
#include "shm/numa_region.hpp"
#include "shm/scoma_region.hpp"
#include "sys/machine.hpp"

using namespace sv;

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kWords = 64;  // per node
constexpr mem::Addr kArray = 0x1000;

/// Rank 0 prints `what`'s sum against `want`; a mismatch counts a failure.
void report(const char* what, std::uint64_t sum, std::uint64_t want,
            int* failures) {
  std::printf("%s %llu (expected %llu) -- %s\n", what,
              static_cast<unsigned long long>(sum),
              static_cast<unsigned long long>(want),
              sum == want ? "OK" : "MISMATCH");
  *failures += sum == want ? 0 : 1;
}

sim::Co<void> worker(app::Comm& c, int* failures) {
  const std::size_t self = c.rank();
  shm::ScomaRegion shared(c.ap());

  // Phase 1: every rank fills its partition of the shared array.
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::size_t idx = self * kWords + i;
    co_await shared.store<std::uint64_t>(kArray + idx * 8,
                                         static_cast<std::uint64_t>(idx));
  }
  co_await c.barrier();

  // Phase 2: rank 0 sums the whole array, faulting remote lines in
  // through the S-COMA protocol.
  if (self == 0) {
    std::uint64_t sum = 0;
    for (std::size_t idx = 0; idx < kNodes * kWords; ++idx) {
      sum += co_await shared.load<std::uint64_t>(kArray + idx * 8);
    }
    const std::uint64_t n = kNodes * kWords;
    report("S-COMA parallel sum:", sum, n * (n - 1) / 2, failures);
    std::uint64_t misses = 0, grants = 0;
    for (sim::NodeId n = 0; n < kNodes; ++n) {
      const auto& st = c.world().machine().node(n).scoma()->stats();
      misses += st.read_misses.value();
      grants += st.grants.value();
    }
    std::printf("  protocol work so far (all nodes): %llu read misses, "
                "%llu directory grants\n",
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(grants));
  }
  co_await c.barrier();

  // Phase 3: the same reduction through the NUMA window (uncached remote
  // accesses; every access pays the firmware toll, nothing is cached).
  shm::NumaRegion numa(c.ap());
  co_await numa.store<std::uint64_t>(self * 8, self + 1);
  co_await c.barrier();
  if (self == 0) {
    std::uint64_t sum = 0;
    for (std::size_t n = 0; n < kNodes; ++n) {
      sum += co_await numa.load<std::uint64_t>(n * 8);
    }
    report("NUMA window sum:    ", sum, kNodes * (kNodes + 1) / 2, failures);
  }
  co_await c.barrier();
}

}  // namespace

int main() {
  sys::Machine::Params params;
  params.nodes = kNodes;
  sys::Machine machine(params);

  std::printf("S-COMA + NUMA shared memory on %zu nodes\n", kNodes);

  int failures = 0;
  app::World world(machine, {});
  world.launch([&](app::Comm& c) { return worker(c, &failures); });
  if (!machine.run_epochs_until([&] { return world.done(); },
                                machine.now() + 2000 * sim::kMillisecond)) {
    std::printf("timed out!\n");
    return 1;
  }
  std::printf("finished at %.2f us simulated\n",
              static_cast<double>(machine.now()) / 1e6);
  return failures == 0 ? 0 : 1;
}
