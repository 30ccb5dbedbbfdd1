// Quickstart: boot a two-node StarT-Voyager machine, send a Basic message
// and an Express message between the application processors, and print
// what happened.
//
//   $ ./quickstart
//
// Walks through the library-level API: sys::Machine assembles nodes (aP +
// cache + bus + DRAM + NIU + sP firmware) on the Arctic fat tree;
// msg::Endpoint is the user-level view of a node's message queues.
#include <cstdio>
#include <cstring>

#include "msg/endpoint.hpp"
#include "sys/experiment.hpp"
#include "sys/machine.hpp"

using namespace sv;

namespace {

constexpr char kText[] = "hello from node 0";
constexpr std::uint8_t kExtra = 0x42;
constexpr std::uint32_t kWord = 0xDEADBEEF;

}  // namespace

int main() {
  // 1. Build the machine: two nodes, default (paper) configuration.
  sys::Machine::Params params;
  params.nodes = 2;
  sys::Machine machine(params);
  const msg::AddressMap map = machine.addr_map();

  std::printf("StarT-Voyager quickstart: %zu nodes on a radix-%u fat tree\n",
              machine.size(), machine.params().radix);

  // 2. Open a user endpoint on each node.
  msg::Endpoint ep0 = machine.node(0).make_endpoint();
  msg::Endpoint ep1 = machine.node(1).make_endpoint();

  bool done = false;
  bool intact = false;

  // 3. Node 0's program: a Basic message, then an Express message.
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map) -> sim::Co<void> {
        co_await ep->send(map.user0(1), std::as_bytes(std::span(kText)));
        // Express: 5 bytes in a single uncached store.
        co_await ep->send_express(map.express(1), kExtra, kWord);
      }(&ep0, map));

  // 4. Node 1's program: receive both, report and check them.
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, sim::Kernel* kernel, bool* flag,
         bool* ok) -> sim::Co<void> {
        msg::Message m = co_await ep->recv();
        std::printf("[%8.2f us] node 1 got Basic message from node %u: "
                    "\"%s\" (%zu bytes)\n",
                    static_cast<double>(kernel->now()) / 1e6, m.src_node,
                    reinterpret_cast<const char*>(m.data.data()),
                    m.data.size());
        msg::ExpressMessage e = co_await ep->recv_express();
        std::printf("[%8.2f us] node 1 got Express message: extra=0x%02X "
                    "word=0x%08X\n",
                    static_cast<double>(kernel->now()) / 1e6, e.extra,
                    e.word);
        *ok = m.src_node == 0 && m.data.size() == sizeof(kText) &&
              std::memcmp(m.data.data(), kText, sizeof(kText)) == 0 &&
              e.extra == kExtra && e.word == kWord;
        *flag = true;
      }(&ep1, &machine.kernel(), &done, &intact));

  // 5. Run the simulation until the programs finish.
  if (!sys::run_until(machine.kernel(), [&] { return done; },
                      100 * sim::kMillisecond)) {
    std::printf("timed out!\n");
    return 1;
  }

  const auto& net = machine.network();
  std::printf("done at %.2f us; network delivered %llu packets "
              "(mean transit %.2f us)\n",
              static_cast<double>(machine.kernel().now()) / 1e6,
              static_cast<unsigned long long>(
                  net.packets_delivered()),
              net.transit_ps().mean() / 1e6);
  if (!intact) {
    std::printf("node 1 received the wrong text or Express word\n");
    return 1;
  }
  return 0;
}
