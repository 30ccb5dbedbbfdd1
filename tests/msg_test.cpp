// Message-library tests beyond the endpoint basics: dual endpoints per
// node (multitasking), interrupt-driven receive, and express flow control.
#include <gtest/gtest.h>

#include <cstring>

#include "tests/test_util.hpp"

namespace sv {
namespace {

class MsgTest : public ::testing::Test {
 protected:
  MsgTest() : machine(test::small_machine_params(2)) {}

  void drive_until(const std::function<bool()>& pred,
                   sim::Tick timeout = 500 * sim::kMillisecond) {
    test::drive(machine.kernel(), pred, timeout);
  }

  sys::Machine machine;
};

TEST_F(MsgTest, TwoJobsShareOneNiuWithoutInterference) {
  // Job A uses the user0 endpoints, job B the user1 endpoints, running
  // concurrently on the same pair of nodes.
  auto a0 = machine.node(0).make_endpoint();
  auto a1 = machine.node(1).make_endpoint();
  auto b0 = machine.node(0).make_endpoint1();
  auto b1 = machine.node(1).make_endpoint1();
  const auto map = machine.addr_map();

  int done = 0;
  bool ok = true;
  constexpr int kCount = 40;

  // Job A: node 0 -> node 1 stream on user0.
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, std::uint16_t vdest) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          std::byte b[4];
          std::memcpy(b, &i, 4);
          co_await ep->send(vdest, b);
        }
      }(&a0, map.user0(1)));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, int* d, bool* ok_) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          msg::Message m = co_await ep->recv();
          std::uint32_t seq = 0;
          std::memcpy(&seq, m.data.data(), 4);
          if (seq != i || m.logical != msg::AddressMap::kUser0L) {
            *ok_ = false;
          }
        }
        ++*d;
      }(&a1, &done, &ok));

  // Job B: node 1 -> node 0 stream on user1, simultaneously.
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, std::uint16_t vdest) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          std::byte b[4];
          const std::uint32_t v = i + 1000;
          std::memcpy(b, &v, 4);
          co_await ep->send(vdest, b);
        }
      }(&b1, map.user1(0)));
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, int* d, bool* ok_) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          msg::Message m = co_await ep->recv();
          std::uint32_t seq = 0;
          std::memcpy(&seq, m.data.data(), 4);
          if (seq != i + 1000 || m.logical != msg::AddressMap::kUser1L) {
            *ok_ = false;
          }
        }
        ++*d;
      }(&b0, &done, &ok));

  drive_until([&] { return done == 2; });
  EXPECT_TRUE(ok);
}

TEST_F(MsgTest, InterruptDrivenReceive) {
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  const auto map = machine.addr_map();
  bool done = false;

  // The receiver sleeps on the arrival interrupt; the sender fires after
  // a long idle period. The receiver's aP busy time must be far below the
  // elapsed time (it slept instead of polling).
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        msg::Message m = co_await ep->recv_interrupt();
        EXPECT_EQ(m.data.size(), 8u);
        *d = true;
      }(&ep1, &done));
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, sim::Kernel* k,
         std::uint16_t vdest) -> sim::Co<void> {
        co_await sim::delay(*k, 200 * sim::kMicrosecond);  // receiver idles
        co_await ep->send(vdest, test::pattern_bytes(8));
      }(&ep0, &machine.kernel(), map.user0(1)));
  drive_until([&] { return done; });

  EXPECT_GT(machine.kernel().now(), 200 * sim::kMicrosecond);
  // Receiver slept through the idle window.
  EXPECT_LT(machine.node(1).ap().busy(), 50 * sim::kMicrosecond);
}

TEST_F(MsgTest, ExpressFlowControlAcrossQueueWrap) {
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  const auto map = machine.addr_map();
  constexpr int kCount = 300;  // > 128 express slots: wraps + flow control
  int received = 0;
  bool ordered = true;

  machine.node(0).ap().run(
      [](msg::Endpoint* ep, std::uint8_t vdest) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          co_await ep->send_express(vdest, static_cast<std::uint8_t>(i),
                                    i);
        }
      }(&ep0, map.express(1)));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, int* n, bool* ok) -> sim::Co<void> {
        for (std::uint32_t i = 0; i < kCount; ++i) {
          msg::ExpressMessage m = co_await ep->recv_express();
          if (m.word != i ||
              m.extra != static_cast<std::uint8_t>(i)) {
            *ok = false;
          }
          ++*n;
        }
      }(&ep1, &received, &ordered));
  drive_until([&] { return received == kCount; });
  EXPECT_TRUE(ordered);
}

TEST_F(MsgTest, EndpointRejectsOversizedSend) {
  auto ep0 = machine.node(0).make_endpoint();
  bool threw = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, bool* t) -> sim::Co<void> {
        try {
          co_await ep->send(0, std::vector<std::byte>(89));
        } catch (const std::invalid_argument&) {
          *t = true;
        }
      }(&ep0, &threw));
  drive_until([&] { return threw; });
}

TEST_F(MsgTest, RecvInterruptWithoutWiringThrows) {
  msg::Endpoint::Config cfg = machine.node(0).endpoint_config();
  cfg.arrival = nullptr;
  msg::Endpoint ep(machine.node(0).ap(), cfg);
  bool threw = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* e, bool* t) -> sim::Co<void> {
        try {
          (void)co_await e->recv_interrupt();
        } catch (const std::logic_error&) {
          *t = true;
        }
      }(&ep, &threw));
  drive_until([&] { return threw; });
}

}  // namespace
}  // namespace sv
