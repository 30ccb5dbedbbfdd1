// System-harness tests: the experiment helper run_until, a run's
// finishing tick, the machine's one epoch loop and clock, and machine-wide
// statistics collection.
#include <gtest/gtest.h>

#include <sstream>

#include "sys/stats_dump.hpp"
#include "tests/test_util.hpp"

namespace sv::sys {
namespace {

TEST(ExperimentTest, RunUntilHonorsDeadline) {
  sim::Kernel kernel;
  bool flag = false;
  kernel.schedule(100, [&] { flag = true; });
  EXPECT_FALSE(run_until(kernel, [&] { return flag; }, 50));
  EXPECT_TRUE(run_until(kernel, [&] { return flag; }, 200));
}

TEST(ExperimentTest, RunUntilReturnsFalseOnIdleKernel) {
  sim::Kernel kernel;
  bool never = false;
  EXPECT_FALSE(run_until(kernel, [&] { return never; }, 1000));
}

/// Simulated ticks `name` takes with `args`, run as svsim runs it: the
/// machine from machine_params, launch, then whole epochs until every node
/// program has finished.
sim::Tick elapsed_ticks(const std::string& name,
                        const std::vector<std::string>& args) {
  const sim::Config cfg = sim::Config::from_args(args);
  Machine machine(machine_params(cfg));
  const auto run = workload(name).launch(machine, cfg);
  EXPECT_TRUE(machine.run_epochs_until([&] { return run->finished(); },
                                       1000 * sim::kMillisecond));
  return run->end() - run->start;
}

/// A run's interval ends at the tick its last node program finished,
/// inside the simulation, not at the epoch boundary the caller stops at.
TEST(RunTest, ElapsedEndsAtTheLastProgramsFinishingTick) {
  // 59.07 us, where the fat tree's 1 us epochs end at 60 us.
  EXPECT_EQ(elapsed_ticks("dma", {"bytes=4096", "threads=0"}), 59'070'000u);
  EXPECT_EQ(elapsed_ticks("msg", {"nodes=4", "net=ideal", "threads=0"}),
            elapsed_ticks("msg", {"nodes=4", "net=ideal", "threads=2"}));
}

/// machine.now() at every predicate call `msg nodes=4 net=ideal` makes at
/// `threads`, then after each of three calls: until the programs finish,
/// until the machine idles, and once more on the idle machine.
std::vector<sim::Tick> epoch_clock_seen(const std::string& threads) {
  const sim::Config cfg =
      sim::Config::from_args({"nodes=4", "net=ideal", "threads=" + threads});
  Machine machine(machine_params(cfg));
  const auto run = workload("msg").launch(machine, cfg);
  std::vector<sim::Tick> seen;
  const auto drive = [&](const std::function<bool()>& done) {
    const bool held = machine.run_epochs_until(
        [&] {
          seen.push_back(machine.now());
          return done();
        },
        machine.now() + 1000 * sim::kMillisecond);
    seen.push_back(machine.now());
    return held;
  };
  EXPECT_TRUE(drive([&] { return run->finished(); }));
  EXPECT_FALSE(drive([] { return false; }));
  EXPECT_FALSE(drive([] { return false; }));
  return seen;
}

/// One epoch loop: the one-domain machine stops where the partitioned
/// ones do, and on an idle machine its predicate sees the epoch it ran,
/// not the kernel clock it has not moved.
TEST(RunTest, EveryThreadCountSeesTheSameEpochClock) {
  const std::vector<sim::Tick> one_domain = epoch_clock_seen("0");
  ASSERT_GT(one_domain.size(), 4u);
  EXPECT_EQ(epoch_clock_seen("1"), one_domain);
  EXPECT_EQ(epoch_clock_seen("2"), one_domain);
}

/// A driver that steps a one-domain machine event by event (sys::run_until,
/// as the xfer harness does) moves its clock past the epoch clock; now()
/// reads that kernel, also after a run_epochs_until whose predicate holds
/// at once, which runs no epoch (svbench's fig4 drains that way).
TEST(RunTest, OneDomainMachineSteppedPastTheEpochsReadsItsKernel) {
  const sim::Config cfg = sim::Config::from_args({"nodes=2", "threads=0"});
  Machine machine(machine_params(cfg));
  const auto run = workload("msg").launch(machine, cfg);
  ASSERT_TRUE(machine.run_epochs_until(
      [&] { return machine.now() >= 2 * sim::kMicrosecond; },
      sim::kMillisecond));
  ASSERT_FALSE(run->finished());
  const sim::Tick epoch_clock = machine.now();
  ASSERT_TRUE(run_until(machine.kernel(), [&] { return run->finished(); },
                        1000 * sim::kMillisecond));
  ASSERT_GT(machine.kernel().now(), epoch_clock);
  EXPECT_EQ(machine.now(), machine.kernel().now());
  EXPECT_TRUE(machine.run_epochs_until([] { return true; },
                                       machine.now() + sim::kMillisecond));
  EXPECT_EQ(machine.now(), machine.kernel().now());
}

TEST(StatsDumpTest, CollectsPerNodeAndMachineCounters) {
  auto machine = sys::Machine(test::small_machine_params(2));
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  bool got = false;
  const auto payload = test::pattern_bytes(16);  // outlives the lazy send
  machine.node(0).ap().run(ep0.send(machine.addr_map().user0(1), payload));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        (void)co_await ep->recv();
        *d = true;
      }(&ep1, &got));
  test::drive(machine.kernel(), [&] { return got; });

  const auto reg = collect_stats(machine);
  EXPECT_GE(reg.get("net.packets_delivered"), 1.0);
  EXPECT_GE(reg.get("n0.ctrl.msgs_launched"), 1.0);
  EXPECT_GE(reg.get("n1.ctrl.msgs_received"), 1.0);
  EXPECT_GT(reg.get("n0.bus.transactions"), 0.0);
  EXPECT_GT(reg.get("n0.aP.busy_us"), 0.0);
  EXPECT_TRUE(reg.contains("n1.scoma.grants"));
  EXPECT_GT(reg.get("sim.now_us"), 0.0);

  std::ostringstream oss;
  collect_stats(machine).dump(oss);
  EXPECT_NE(oss.str().find("n0.ctrl.msgs_launched"), std::string::npos);
}

TEST(StatsDumpTest, DisabledEnginesOmitTheirKeys) {
  auto p = test::small_machine_params(2);
  p.node.enable_scoma = false;
  auto machine = sys::Machine(p);
  const auto reg = collect_stats(machine);
  EXPECT_FALSE(reg.contains("n0.scoma.grants"));
}

}  // namespace
}  // namespace sv::sys
