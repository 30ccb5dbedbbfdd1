// Multi-queue / protection showcase (paper sections 2 and 4):
//
//   1. protection: a message to an invalid virtual destination shuts the
//      offending transmit queue down and interrupts firmware, without
//      disturbing traffic on other queues;
//   2. transmit prioritization: the dynamically reconfigurable priority
//      register lets an urgent queue overtake a bulk stream;
//   3. receive-queue caching: a logical queue with no hardware binding is
//      diverted to the miss queue and spilled by firmware into a
//      DRAM-resident image the library reads back.
//
//   $ ./multiqueue
#include <cstdio>
#include <functional>
#include <string_view>

#include "msg/dram_queue.hpp"
#include "sys/experiment.hpp"
#include "sys/machine.hpp"

using namespace sv;

int main() {
  sys::Machine::Params params;
  params.nodes = 2;
  sys::Machine machine(params);
  const auto map = machine.addr_map();
  auto& kernel = machine.kernel();
  auto& ctrl0 = machine.node(0).niu().ctrl();

  msg::Endpoint ep0 = machine.node(0).make_endpoint();

  // Every demo waits for its outcome; a wait that times out, or a wrong
  // outcome, fails the run.
  bool ok = true;
  const auto wait_for = [&](const std::function<bool()>& pred) {
    const sim::Tick deadline = kernel.now() + 100 * sim::kMillisecond;
    ok = sys::run_until(kernel, pred, deadline) && ok;
  };

  // --- 1. Protection ---------------------------------------------------------
  std::printf("== protection ==\n");
  {
    bool sent = false;
    machine.node(0).ap().run(
        [](msg::Endpoint* ep, bool* done) -> sim::Co<void> {
          // 0xEE is far outside the translation table: CTRL must refuse.
          co_await ep->send(0xEE, std::vector<std::byte>(4));
          *done = true;
        }(&ep0, &sent));
    wait_for(
        [&] { return sent && ctrl0.txq(sys::Node::kTxUser0).shutdown; });
    std::printf("  sent to invalid vdest 0xEE -> tx queue %u shut down "
                "(shutdown reg = 0x%llX, interrupt status = 0x%llX)\n",
                sys::Node::kTxUser0,
                static_cast<unsigned long long>(
                    ctrl0.read_reg(niu::SysReg::kShutdownStatus)),
                static_cast<unsigned long long>(ctrl0.interrupt_status()));

    // The "OS" clears the bad message and re-enables the queue.
    auto& q = ctrl0.txq(sys::Node::kTxUser0);
    q.consumer = q.producer;
    ctrl0.write_reg(niu::SysReg::kShutdownStatus,
                    1ull << sys::Node::kTxUser0);
    ctrl0.clear_interrupts(~0ull);
    std::printf("  OS drained the queue and re-enabled it\n");
  }

  // --- 2. Priority arbitration -----------------------------------------------
  // A probe message on the user1 queue competes with a 16-message bulk
  // stream on the user0 queue. When the bulk queue outranks the probe, the
  // probe waits for the whole stream; when classes are equal, round-robin
  // interleaves it promptly; an outranking probe goes out first.
  std::printf("== transmit prioritization ==\n");
  struct Case {
    const char* name;
    std::uint64_t bulk_class;
    std::uint64_t probe_class;
  };
  for (const Case c : {Case{"bulk outranks probe (3 vs 1)", 3, 1},
                       Case{"equal classes (1 vs 1)      ", 1, 1},
                       Case{"probe outranks bulk (1 vs 3)", 1, 3}}) {
    std::uint64_t prio = c.bulk_class << (2 * sys::Node::kTxUser0);
    prio |= c.probe_class << (2 * sys::Node::kTxUser1);
    ctrl0.write_reg(niu::SysReg::kTxPriority, prio);

    // Bulk stream on user0 (backdoor compose), probe on user1.
    auto& asram = machine.node(0).niu().asram();
    auto& bulk = ctrl0.txq(sys::Node::kTxUser0);
    for (int i = 0; i < 16; ++i) {
      niu::MsgDescriptor d;
      d.vdest = map.user0(1);
      d.length = 88;
      std::byte hdr[8];
      d.encode(hdr);
      asram.write(
          bulk.slot_addr(static_cast<std::uint16_t>(bulk.producer + i)),
          hdr);
    }
    ctrl0.tx_producer_update(
        sys::Node::kTxUser0,
        static_cast<std::uint16_t>(bulk.producer + 16));

    auto& urgent = ctrl0.txq(sys::Node::kTxUser1);
    niu::MsgDescriptor d;
    d.vdest = map.user1(1);
    d.length = 8;
    std::byte hdr[8];
    d.encode(hdr);
    asram.write(urgent.slot_addr(urgent.producer), hdr);

    auto& rx = machine.node(1).niu().ctrl().rxq(sys::Node::kRxUser1);
    const auto before = rx.producer;
    const sim::Tick t0 = kernel.now();
    ctrl0.tx_producer_update(
        sys::Node::kTxUser1,
        static_cast<std::uint16_t>(urgent.producer + 1));
    wait_for([&] { return rx.producer != before; });
    std::printf("  probe behind 16 bulk messages, %s: %.2f us\n", c.name,
                static_cast<double>(kernel.now() - t0) / 1e6);
    // Drain the bulk before the next round.
    wait_for([&] { return ctrl0.txq(sys::Node::kTxUser0).empty(); });
    auto& rctrl = machine.node(1).niu().ctrl();
    rctrl.rx_consumer_update(sys::Node::kRxUser0,
                             rctrl.rxq(sys::Node::kRxUser0).producer);
    rctrl.rx_consumer_update(sys::Node::kRxUser1, rx.producer);
  }

  // --- 3. Receive-queue caching / DRAM-resident queues -------------------------
  std::printf("== receive-queue caching ==\n");
  {
    constexpr net::QueueId kLogical = 0x0321;
    fw::DramQueueDesc desc;
    desc.base = 0x0050'0000;
    desc.slots = 32;
    machine.node(1).miss_service().register_queue(kLogical, desc);

    bool got = false;
    bool intact = false;
    machine.node(0).ap().run(
        [](msg::Endpoint* ep) -> sim::Co<void> {
          const char text[] = "spilled to DRAM";
          co_await ep->send_raw(1, 0x0321,
                                std::as_bytes(std::span(text,
                                                        sizeof(text))));
        }(&ep0));
    msg::DramQueue dq(machine.node(1).ap(), desc);
    machine.node(1).ap().run(
        [](msg::DramQueue* q, bool* done, bool* intact) -> sim::Co<void> {
          msg::Message m = co_await q->recv();
          const char* text = reinterpret_cast<const char*>(m.data.data());
          std::printf("  message for unbound logical queue 0x%04X arrived "
                      "via the miss queue: \"%s\"\n",
                      m.logical, text);
          *intact = m.logical == kLogical &&
                    std::string_view(text) == "spilled to DRAM";
          *done = true;
        }(&dq, &got, &intact));
    wait_for([&] { return got; });
    const auto spills = machine.node(1).miss_service().serviced().value();
    std::printf("  firmware miss service handled %llu spill(s)\n",
                static_cast<unsigned long long>(spills));
    ok = ok && intact && spills == 1;
  }

  if (!ok) {
    std::printf("a demo timed out or went wrong\n");
    return 1;
  }
  std::printf("all demos completed at %.2f us simulated\n",
              static_cast<double>(kernel.now()) / 1e6);
  return 0;
}
