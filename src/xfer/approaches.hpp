// The paper's section-6 experiment: five implementations of block memory
// transfer (contiguous local DRAM -> contiguous remote DRAM, followed by a
// message into the receiver's regular queue).
//
//   1  aP-managed: sender aP reads+packetizes Basic messages, receiver aP
//      copies into memory (data crosses each aP bus twice).
//   2  sP-managed: per-chunk command-queue reads + TagOn sends, receiving
//      sP lands the chunks (one bus crossing per side, high sP occupancy).
//   3  hardware block operations (kBlockXfer): both processors nearly idle.
//   4  approach 3 + optimistic S-COMA notification after 1/4 of the data;
//      the receiving sP opens clsSRAM lines as chunks arrive.
//   5  approach 4 with the aBIU extension: arriving chunks update clsSRAM
//      in hardware (set_cls remote writes), no per-chunk firmware.
//
// Approaches 4-5 require the destination to lie in the cls-gated S-COMA
// region and are meant to run with the S-COMA protocol engine disabled
// (the block transfer manages cls state itself, using the dedicated
// kClsBlockPending encoding).
#pragma once

#include "msg/dma.hpp"
#include "sys/experiment.hpp"
#include "sys/machine.hpp"
#include "xfer/sp_copy.hpp"

namespace sv::xfer {

/// cls encoding used by approaches 4/5 for not-yet-arrived lines: retry
/// without forwarding to the S-COMA protocol.
inline constexpr std::uint8_t kClsBlockPending = 4;

struct TransferSpec {
  sim::NodeId sender = 0;
  sim::NodeId receiver = 1;
  mem::Addr src = 0x0010'0000;
  mem::Addr dst = 0x0020'0000;  // approaches 4/5: must be in S-COMA region
  std::uint32_t len = 4096;     // 32-byte aligned
};

struct TransferResult {
  bool ok = false;              // completed and verified
  sim::Tick start = 0;
  sim::Tick notify_time = 0;    // receiver saw the completion message
  sim::Tick consume_time = 0;   // receiver finished reading the data (0 if
                                // consumption was not requested)
  sim::Tick sender_ap_busy = 0;
  sim::Tick receiver_ap_busy = 0;
  sim::Tick sender_sp_busy = 0;
  sim::Tick receiver_sp_busy = 0;

  [[nodiscard]] sim::Tick latency() const { return notify_time - start; }
  [[nodiscard]] double bandwidth_mbps(std::uint32_t len) const {
    const sim::Tick t = notify_time - start;
    return t == 0 ? 0.0
                  : static_cast<double>(len) /
                        (static_cast<double>(t) * 1e-12) / 1e6;
  }
};

struct RunOptions {
  bool consume = false;          // receiver reads the data after notify
  sim::Tick consume_delay = 0;   // wait before consuming (approach 4/5
                                 // degradation experiments read early data
                                 // late or vice versa)
};

/// Drives block transfers on a Machine. Construct once per machine: the
/// harness owns persistent per-node endpoints (library pointer mirrors must
/// track CTRL's free-running queue pointers across runs) and, for approach
/// 2, installs the SpCopyEngine on every node.
class BlockTransferHarness {
 public:
  /// A transfer fails (ok = false) when it has not completed this long
  /// after its start.
  static constexpr sim::Tick kDeadline = 500 * sim::kMillisecond;

  explicit BlockTransferHarness(sys::Machine& machine);

  /// Run one transfer with the given approach (1..5). Synchronous: drives
  /// the machine's kernel until the transfer completes or kDeadline
  /// passes, then verifies the data.
  TransferResult run(int approach, const TransferSpec& spec,
                     const RunOptions& options = {});

  [[nodiscard]] sys::Machine& machine() { return machine_; }
  [[nodiscard]] msg::Endpoint& endpoint(sim::NodeId n) {
    return *endpoints_.at(n);
  }

 private:
  sim::Co<void> a1_sender(const TransferSpec& spec);
  sim::Co<void> a1_receiver(const TransferSpec& spec, sim::OneShot& notified);
  sim::Co<void> a2_sender(const TransferSpec& spec);
  sim::Co<void> a3_sender(const TransferSpec& spec);
  /// Approaches 4/5: sP-side orchestration on the sender.
  sim::Co<void> a45_sender(const TransferSpec& spec, bool hardware_cls);
  sim::Co<void> wait_notify(sim::NodeId node, sim::OneShot& notified);
  sim::Co<void> consume_data(const TransferSpec& spec, sim::Tick delay,
                             sim::OneShot& done);

  void init_data(const TransferSpec& spec);
  [[nodiscard]] bool verify_data(const TransferSpec& spec);

  sys::Machine& machine_;
  std::vector<std::unique_ptr<msg::Endpoint>> endpoints_;
  std::vector<std::unique_ptr<SpCopyEngine>> sp_copy_;
  std::uint32_t next_tag_ = 1;
  std::uint8_t fill_ = 1;
};

}  // namespace sv::xfer
