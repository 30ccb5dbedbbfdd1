// CTRL: the core-NIU ASIC (paper sections 3-4).
//
// CTRL owns everything the paper lists as core functionality:
//   - 16 transmit + 16 receive hardware queues (pointers live here, buffer
//     storage in the dual-ported SRAMs),
//   - two ordered local command queues + the remote command queue,
//   - transmit-queue priority arbitration,
//   - protection and destination translation (AND/OR mask + table in sSRAM),
//   - receive-queue caching with the miss/overflow queue,
//   - the block read / block transmit engines,
//   - the IBus (the NIU's central datapath),
//   - pointer shadowing into aSRAM and the sP interrupt lines.
//
// The TxU/RxU (network formatting) and the BIUs (bus interfaces) drive CTRL
// through the public interface below, mirroring the hardware interfaces the
// paper describes between CTRL and the FPGAs.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "mem/cls_sram.hpp"
#include "mem/sram.hpp"
#include "net/network.hpp"
#include "niu/command.hpp"
#include "niu/queues.hpp"
#include "niu/regs.hpp"
#include "sim/coro.hpp"
#include "sim/fifo.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace sv::niu {

class ABiu;
class BlockEngines;

struct CtrlStats {
  sim::Counter msgs_launched;
  sim::Counter msgs_received;
  sim::Counter express_pushed;
  sim::Counter express_popped;
  sim::Counter rx_hits;
  sim::Counter rx_misses;       // diverted to the miss queue
  sim::Counter rx_dropped;
  sim::Counter rx_held_ps;      // total hold time (kHold policy), in ps
  sim::Counter cmds_local;
  sim::Counter cmds_remote;
  sim::Counter cmds_immediate;
  sim::Counter protection_violations;
  sim::Counter xlat_lookups;
  sim::Counter block_reads;
  sim::Counter block_txs;
  sim::Counter block_xfers;
  sim::BusyTracker ibus_busy;
};

class Ctrl : public sim::SimObject {
 public:
  /// Per-command decode overhead, in cycles of mem::kBusClock (CTRL runs
  /// at bus clock).
  static constexpr sim::Cycles kCmdDispatchCycles = 2;
  /// Block-transfer double-buffering chunk.
  static constexpr std::uint32_t kBlockChunkBytes = 2048;

  Ctrl(sim::Kernel& kernel, std::string name, sim::NodeId node,
       mem::DualPortedSram& asram, mem::DualPortedSram& ssram,
       mem::ClsSram& cls);
  ~Ctrl() override;

  /// Late wiring (the BIUs and network are built around CTRL). The aBIU is
  /// CTRL's bus master on the aP bus: block operations, remote-command
  /// execution and coherence actions go through it.
  void bind(ABiu* abiu, net::Network* network);

  /// Spawn the command-queue processors. Call once after bind().
  void start();

  [[nodiscard]] sim::NodeId node() const { return node_; }

  // --- Queue state (configuration is privileged: sP / OS code) -------------
  TxQueueState& txq(unsigned q) { return txq_.at(q); }
  RxQueueState& rxq(unsigned q) { return rxq_.at(q); }
  [[nodiscard]] const TxQueueState& txq(unsigned q) const {
    return txq_.at(q);
  }
  [[nodiscard]] const RxQueueState& rxq(unsigned q) const {
    return rxq_.at(q);
  }

  // --- Pointer interface (from the BIUs) ------------------------------------
  void tx_producer_update(unsigned q, std::uint16_t value);
  void rx_consumer_update(unsigned q, std::uint16_t value);

  // --- Express engines (driven by the aBIU) ---------------------------------
  static constexpr std::uint64_t kExpressEmpty = ~std::uint64_t{0};

  /// Compose+launch an express message: write the packed entry into the
  /// queue's SRAM FIFO and advance the producer. Waits when the queue is
  /// full (backpressuring the posting BIU).
  sim::Co<void> express_tx_push(unsigned q, std::uint64_t entry);

  /// Pop one express message (functional; the bus read's snoop latency
  /// models the access time). Returns kExpressEmpty when none is pending.
  std::uint64_t express_rx_pop(unsigned q);

  // --- Command interfaces ----------------------------------------------------
  /// Post to one of the two ordered local command queues.
  void post_command(unsigned cmdq, Command cmd);
  /// Post to the remote command queue (RxU does this for arriving packets).
  void post_remote_command(Command cmd);
  /// sP immediate interface: execute one command synchronously.
  sim::Co<void> exec_immediate(Command cmd);

  /// Commands pending across all command queues (fence/test support).
  [[nodiscard]] bool commands_idle() const;
  sim::Signal& commands_drained() { return cmds_drained_; }

  /// Queue-status interface: commands waiting in local queue `cmdq` (the
  /// status register firmware polls to pace its command issue).
  [[nodiscard]] std::size_t pending_commands(unsigned cmdq) const {
    return local_cmds_.at(cmdq)->size();
  }
  /// Pulsed after every command completes (queue-status change).
  sim::Signal& command_progress() { return cmd_progress_; }

  // --- Receive path (driven by the RxU) --------------------------------------
  sim::Co<void> rx_deliver(net::Packet pkt);

  /// Deliver a locally-generated message into a logical rx queue.
  sim::Co<void> notify_local(net::QueueId logical,
                             std::span<const std::byte> data,
                             std::uint16_t src_node);

  // --- Transmit path (driven by the TxU) --------------------------------------
  sim::Signal& tx_work() { return tx_work_; }
  /// Pick the next transmit queue: highest priority class first,
  /// round-robin within a class. Returns -1 when nothing is pending.
  [[nodiscard]] int pick_tx_queue();
  /// Compose, translate, protect and launch the head message of queue q.
  sim::Co<void> tx_launch(unsigned q);

  /// Shared network injection port (TxU and the block engines).
  sim::Co<void> inject(net::Packet pkt);

  // --- IBus and SRAM ----------------------------------------------------------
  /// Occupy the IBus (and the selected SRAM's IBus port) for a transfer.
  sim::Co<void> ibus_access(SramBank bank, std::uint32_t bytes);
  [[nodiscard]] mem::DualPortedSram& sram(SramBank bank) {
    return bank == SramBank::kASram ? asram_ : ssram_;
  }
  [[nodiscard]] mem::ClsSram& cls() { return cls_; }
  [[nodiscard]] ABiu& abiu() { return *abiu_; }

  // --- System registers and interrupts -----------------------------------------
  [[nodiscard]] std::uint64_t read_reg(SysReg r) const;
  void write_reg(SysReg r, std::uint64_t v);
  void raise_interrupt(std::uint64_t cause);
  void clear_interrupts(std::uint64_t mask);
  [[nodiscard]] std::uint64_t interrupt_status() const {
    return intr_status_;
  }
  sim::Signal& sp_interrupt() { return sp_intr_; }

  /// Pulsed whenever a message lands in any rx queue.
  sim::Signal& rx_arrival() { return rx_arrival_; }

  [[nodiscard]] CtrlStats& stats() { return stats_; }
  [[nodiscard]] const CtrlStats& stats() const { return stats_; }

  /// Snapshot state: every tx/rx hardware queue's control block (enable /
  /// shutdown flags, free-running producer/consumer counters, binding),
  /// the per-class round-robin cursors, flow-id sequence, interrupt status
  /// and all CTRL counters (DESIGN.md §14).
  void ckpt_save(ckpt::Writer& w) const;

  /// Shut down tx queue `q` (protection machinery): the queue stops
  /// launching, the shutdown status register bit is set and a protection
  /// interrupt is raised. Also the surface for the reliable-delivery
  /// layer's give-up path: a peer declared dead shuts the sending queue.
  void shutdown_tx_queue(unsigned q);

 private:
  friend class BlockEngines;

  sim::Co<void> command_loop(sim::Channel<Command>& chan,
                             sim::Counter& counter);
  sim::Co<void> execute(Command cmd);
  sim::Co<void> run_block_command(Command cmd);
  sim::Co<void> finish_command(const Command& cmd);

  /// Translate a (masked) virtual destination. nullopt => protection fail.
  sim::Co<std::optional<XlatEntry>> translate(std::uint16_t and_mask,
                                              std::uint16_t or_mask,
                                              std::uint16_t vdest);

  sim::Co<void> write_shadow(mem::Addr offset, std::uint32_t value);
  /// Gate entry to the miss/overflow queue, honoring its full policy.
  /// Returns false when the message must be dropped.
  sim::Co<bool> divert_to_miss();
  sim::Co<void> rx_enqueue(unsigned qidx, const RxDescriptor& desc,
                           std::span<const std::byte> data,
                           std::uint64_t flow = 0);
  [[nodiscard]] int rx_lookup(net::QueueId logical) const;

  // --- Tracing helpers (no-ops when no tracer is attached) -------------------
  /// Lazily register a lane under this NIU's node process ("n0").
  trace::TrackId trace_lane(trace::TrackId& cache, std::string lane,
                            std::string_view category,
                            bool counter = false) const;
  void trace_tx_depth(unsigned q);
  void trace_rx_depth(unsigned q);
  /// Close residency spans for `count` consumed slots of rx queue q.
  void trace_rx_consumed(unsigned q, unsigned count);

  sim::NodeId node_;
  std::uint64_t flow_seq_ = 0;  // per-node flow ids for traced packets
  mem::DualPortedSram& asram_;
  mem::DualPortedSram& ssram_;
  mem::ClsSram& cls_;
  ABiu* abiu_ = nullptr;
  net::Network* network_ = nullptr;

  std::array<TxQueueState, kNumTxQueues> txq_{};
  std::array<RxQueueState, kNumRxQueues> rxq_{};
  unsigned tx_rr_[kNumPriorityClasses] = {};  // round-robin state per class

  std::array<std::unique_ptr<sim::Channel<Command>>, kNumCmdQueues>
      local_cmds_;
  std::unique_ptr<sim::Channel<Command>> remote_cmds_;
  unsigned cmds_in_flight_ = 0;
  sim::Signal cmds_drained_;
  sim::Signal cmd_progress_;

  std::unique_ptr<BlockEngines> blocks_;

  sim::Semaphore ibus_;
  sim::Semaphore net_port_;
  sim::Signal tx_work_;
  sim::Signal rx_arrival_;
  sim::Signal queue_space_;  // pulsed whenever tx or rx queue space frees up
  sim::Signal sp_intr_;
  std::uint64_t intr_status_ = 0;
  std::uint64_t intr_enable_ = ~std::uint64_t{0};
  // kTranslationBase / kTranslationSize: the table's sSRAM offset and
  // entry count.
  std::uint32_t xlat_base_ = 0;
  std::uint32_t xlat_entries_ = 256;

  CtrlStats stats_;
  bool started_ = false;

  // Trace lanes (lazily registered; kNoTrack until first use).
  mutable trace::TrackId ibus_track_ = trace::kNoTrack;
  mutable trace::TrackId txu_track_ = trace::kNoTrack;
  mutable trace::TrackId rxu_track_ = trace::kNoTrack;
  mutable trace::TrackId inject_track_ = trace::kNoTrack;
  mutable trace::TrackId cmd_track_ = trace::kNoTrack;
  mutable std::array<trace::TrackId, kNumTxQueues> txq_depth_track_;
  mutable std::array<trace::TrackId, kNumRxQueues> rxq_depth_track_;
  mutable std::array<trace::TrackId, kNumRxQueues> rxq_res_track_;
  struct RxResident {
    std::uint64_t flow;
    sim::Tick since;
  };
  std::array<sim::Fifo<RxResident>, kNumRxQueues> rx_resident_;
};

}  // namespace sv::niu
