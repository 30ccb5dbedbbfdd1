// Update-based shared memory with the diff-ing hardware (paper section 5,
// "Extending Default Mechanisms").
//
// A producer node repeatedly modifies a few lines of a shared page and
// publishes its changes to a consumer. Three propagation strategies are
// compared on the same workload:
//
//   full    ship the whole page every round (kBlockXfer),
//   diff    value-diff against a staged old copy (kBlockDiffTx mode 1),
//   tracked clsSRAM dirty bits mark the modified lines as the aP writes
//           them, so the engine reads and ships only those (mode 0) —
//           "reducing the amount of diff-ing required".
//
//   $ ./update_shm [dirty_lines_per_round]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>

#include "sys/experiment.hpp"
#include "sys/stats_dump.hpp"
#include "xfer/approaches.hpp"

using namespace sv;

namespace {

constexpr mem::Addr kPage = niu::kScomaBase + 0x10000;
constexpr std::uint32_t kPageLen = 4096;
constexpr mem::Addr kConsumerCopy = 0x0060'0000;
constexpr int kRounds = 8;

struct Run {
  sim::Tick total = 0;
  std::uint64_t packets = 0;
  bool ok = true;  // no timeout, and the consumer saw every write
};

/// Page offset of the i-th of n lines the producer spreads its writes over.
mem::Addr line_offset(unsigned i, unsigned n) {
  const unsigned lines = kPageLen / mem::kLineBytes;
  return static_cast<mem::Addr>((i * lines) / n) * mem::kLineBytes;
}

/// True if every line the producer wrote in round `salt` holds the written
/// value in the consumer's copy (a later write to a line wins).
bool consumer_holds(sys::Machine& machine, unsigned n, int salt) {
  std::map<mem::Addr, std::uint32_t> want;
  for (unsigned i = 0; i < n; ++i) {
    want[line_offset(i, n)] = static_cast<std::uint32_t>(salt * 1000 + i);
  }
  for (const auto& [off, value] : want) {
    std::uint32_t got = 0;
    machine.node(1).dram().store().read(
        kConsumerCopy + off, std::as_writable_bytes(std::span(&got, 1)));
    if (got != value) {
      return false;
    }
  }
  return true;
}

Run run_strategy(sys::Machine& machine, int mode, unsigned dirty_lines) {
  auto& kernel = machine.kernel();
  auto& ctrl0 = machine.node(0).niu().ctrl();
  auto& ctrl1 = machine.node(1).niu().ctrl();
  const auto packets0 = machine.network().packets_delivered();
  const sim::Tick t0 = kernel.now();
  bool ok = true;

  for (int round = 0; round < kRounds; ++round) {
    // The producer aP modifies `dirty_lines` lines.
    bool wrote = false;
    machine.node(0).ap().run(
        [](cpu::Processor* ap, unsigned n, int salt, bool* d) -> sim::Co<void> {
          for (unsigned i = 0; i < n; ++i) {
            co_await ap->store_scalar<std::uint32_t>(
                kPage + line_offset(i, n),
                static_cast<std::uint32_t>(salt * 1000 + i));
          }
          co_await ap->flush_range(kPage, kPageLen);
          *d = true;
        }(&machine.node(0).ap(), dirty_lines, round, &wrote));
    ok = sys::run_until(kernel, [&] { return wrote; },
                        kernel.now() + 500 * sim::kMillisecond) &&
         ok;

    // Publish.
    niu::Command cmd;
    if (mode < 0) {
      cmd.op = niu::CmdOp::kBlockXfer;
      cmd.bank = niu::SramBank::kSSram;
      cmd.sram_offset = fw::DmaEngine::kStaging;
    } else {
      cmd.op = niu::CmdOp::kBlockDiffTx;
      cmd.diff_mode = static_cast<std::uint8_t>(mode);
      if (mode == 1) {
        cmd.bank = niu::SramBank::kSSram;
        cmd.sram_offset = sys::Node::kDiffCopyBase;
      }
    }
    cmd.addr = kPage;
    cmd.len = kPageLen;
    cmd.dest_node = 1;
    cmd.dest_addr = kConsumerCopy;
    ctrl0.post_command(0, std::move(cmd));
    // The round ends when both command engines are idle and the consumer's
    // copy holds every line written: the last remote writes are still on
    // the wire when the engines go idle. A stale line times out.
    ok = sys::run_until(kernel,
                        [&] {
                          return ctrl0.commands_idle() &&
                                 ctrl1.commands_idle() &&
                                 consumer_holds(machine, dirty_lines, round);
                        },
                        kernel.now() + 500 * sim::kMillisecond) &&
         ok;
  }

  return Run{kernel.now() - t0,
             machine.network().packets_delivered() - packets0, ok};
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned dirty =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;

  std::printf("Update-based shared memory: %d rounds, %u dirty lines of "
              "%u per round\n\n",
              kRounds, dirty, kPageLen / 32);

  std::printf("%-28s %10s %14s %8s\n", "strategy", "total_us",
              "per_round_us", "packets");
  bool all_ok = true;
  for (const auto& [name, mode] :
       std::initializer_list<std::pair<const char*, int>>{
           {"full page (kBlockXfer)", -1},
           {"value diff (mode 1)", 1},
           {"cls-tracked diff (mode 0)", 0}}) {
    sys::Machine::Params params;
    params.nodes = 2;
    params.node.enable_scoma = false;
    sys::Machine machine(params);
    machine.node(0).niu().abiu().enable_write_tracking(kPage, kPageLen);
    if (mode == 1) {
      // Seed the old copy with the page's initial contents.
      std::vector<std::byte> snap(kPageLen);
      machine.node(0).dram().store().read(kPage, snap);
      machine.node(0).niu().ssram().write(sys::Node::kDiffCopyBase, snap);
    }
    const Run r = run_strategy(machine, mode, dirty);
    if (!r.ok) {
      std::printf("%s: timed out or left a written line stale\n", name);
      all_ok = false;
    }
    std::printf("%-28s %10.2f %14.2f %8llu\n", name,
                static_cast<double>(r.total) / 1e6,
                static_cast<double>(r.total / kRounds) / 1e6,
                static_cast<unsigned long long>(r.packets));
  }

  std::printf("\nThe tracked strategy ships only what changed, without\n"
              "reading the whole page to find out what that was.\n");
  return all_ok ? 0 : 1;
}
