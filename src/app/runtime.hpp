// SMPI-style application runtime: run real parallel programs on the
// simulated machine.
//
// A World maps `nranks` coroutine processes round-robin onto the
// machine's nodes (rank r runs on node r % nodes, on that node's aP) and
// gives each a Comm with an MPI-flavored API: blocking and nonblocking
// tagged send/recv, barrier (dissemination), broadcast (binomial tree)
// and reduce/allreduce (ring algorithm). Communication goes through one
// app::Transport per node — msg, shm or reliable, selected at World
// construction — so the same program runs unmodified over every
// mechanism.
//
// Following the SMPI model, communications are simulated while
// computations are emulated: programs move real bytes and compute real
// values host-side at zero simulated cost, and simulated time is charged
// explicitly — per communication call through the ComputeModel, and for
// algorithmic work through Comm::compute().
//
// Determinism: every rank's process is an event-driven coroutine inside
// its owning node's domain; cross-node interaction happens only through
// the underlying mechanism; per-rank completion flags are written only by
// the owner domain. A World run is therefore bit-identical across
// threads={0,1,2,4} and fastpath on/off, like everything else in the
// machine (DESIGN.md §13).
#pragma once

#include <functional>
#include <memory>

#include "app/transport.hpp"
#include "sys/experiment.hpp"

namespace sv::app {

enum class TransportKind { kMsg, kShm, kReliable };

enum class ReduceOp { kSum, kMin, kMax };

/// Simulated cycles charged on the aP per communication call:
/// a fixed API overhead plus a per-word marshalling cost.
struct ComputeModel {
  std::uint64_t op_cycles = 200;
  std::uint64_t word_cycles = 1;  // per 4 payload bytes

  [[nodiscard]] std::uint64_t cost(std::size_t bytes) const {
    return op_cycles + word_cycles * ((bytes + 3) / 4);
  }
};

class World;

/// Handle to a pending nonblocking operation. Copyable; redeem with
/// Comm::wait(). Every request completes before its rank's process is
/// allowed to report done (a per-rank WaitGroup joins the stragglers).
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  [[nodiscard]] bool done() const { return st_ && st_->completed.fired(); }

 private:
  friend class Comm;
  struct State {
    explicit State(sim::Kernel& k) : completed(k) {}
    sim::OneShot completed;
    Inbound msg;  // irecv result; empty for isend
  };
  std::shared_ptr<State> st_;
};

/// One rank's view of the world: the object a per-rank program receives.
class Comm {
 public:
  [[nodiscard]] std::uint16_t rank() const { return rank_; }
  [[nodiscard]] std::uint16_t size() const;
  [[nodiscard]] cpu::Processor& ap();
  [[nodiscard]] sim::Kernel& kernel();
  [[nodiscard]] World& world() { return *world_; }

  // --- Point-to-point ------------------------------------------------------
  sim::Co<void> send(std::uint16_t dst, std::uint32_t tag,
                     std::span<const std::byte> data);
  sim::Co<Inbound> recv(std::uint16_t src = kAnyRank,
                        std::uint32_t tag = kAnyTag);
  /// Nonblocking variants: the operation proceeds on a detached coroutine;
  /// wait() suspends until completion and yields the inbound message
  /// (empty for isend).
  Request isend(std::uint16_t dst, std::uint32_t tag,
                std::vector<std::byte> data);
  Request irecv(std::uint16_t src = kAnyRank, std::uint32_t tag = kAnyTag);
  sim::Co<Inbound> wait(Request r);

  // --- Collectives (every rank must call, in the same order) ---------------
  sim::Co<void> barrier();
  /// In-place binomial broadcast of `data` from `root`.
  sim::Co<void> bcast(std::uint16_t root, std::span<std::byte> data);
  /// Ring reduce-scatter + gather-to-root; `data` holds the result only
  /// at root (other ranks' buffers are scratch afterwards).
  sim::Co<void> reduce(std::uint16_t root, std::span<double> data,
                       ReduceOp op);
  /// Ring allreduce (reduce-scatter + allgather); in place on every rank.
  sim::Co<void> allreduce(std::span<double> data, ReduceOp op);

  // --- Emulated computation ------------------------------------------------
  /// Charge `cycles` of work on this rank's aP (the SMPI emulation rule:
  /// the actual arithmetic runs host-side, only its cost is simulated).
  sim::Co<void> compute(std::uint64_t cycles);

 private:
  friend class World;
  Comm(World* world, std::uint16_t rank) : world_(world), rank_(rank) {}

  sim::Co<void> send_impl(std::uint16_t dst, std::uint32_t tag,
                          std::span<const std::byte> data);
  sim::Co<Inbound> recv_impl(std::uint16_t src, std::uint32_t tag);
  sim::Co<void> isend_task(std::uint16_t dst, std::uint32_t tag,
                           std::vector<std::byte> data,
                           std::shared_ptr<Request::State> st);
  sim::Co<void> irecv_task(std::uint16_t src, std::uint32_t tag,
                           std::shared_ptr<Request::State> st);
  /// Shared ring reduce-scatter phase: afterwards rank r holds the fully
  /// reduced chunk (r + 1) % n of `data`.
  sim::Co<void> ring_reduce_scatter(std::span<double> data, ReduceOp op,
                                    std::uint32_t kind, std::uint16_t gen);
  /// Tag for collective kind `kind`, generation `gen`, round `round`
  /// (above kMaxUserTag, so user traffic can never match it).
  [[nodiscard]] static std::uint32_t coll_tag(std::uint32_t kind,
                                              std::uint16_t gen,
                                              std::uint32_t round);
  [[nodiscard]] Transport& transport();
  [[nodiscard]] sim::WaitGroup& wg();

  World* world_;
  std::uint16_t rank_;
  std::uint16_t gen_barrier_ = 0;
  std::uint16_t gen_bcast_ = 0;
  std::uint16_t gen_reduce_ = 0;
  std::uint16_t gen_allreduce_ = 0;
};

class World {
 public:
  struct Params {
    /// Processes to run; 0 means one per node. Ranks beyond the node
    /// count share nodes round-robin.
    std::size_t nranks = 0;
    TransportKind transport = TransportKind::kMsg;
    ShmTransport::Region shm_region = ShmTransport::Region::kNuma;
    ComputeModel compute;
    msg::ReliableChannel::Params reliable;
    sim::Tick shm_poll = 500 * sim::kNanosecond;
  };

  /// A per-rank program. Must be SPMD with respect to collectives.
  using Program = std::function<sim::Co<void>(Comm&)>;

  World(sys::Machine& machine, Params params);

  /// Start the transports and spawn `program` for every rank on its
  /// owning node's aP. Drive the machine afterwards with
  /// machine.run_epochs_until([&]{ return world.done(); }, deadline).
  void launch(const Program& program);

  /// True once every rank's program (and all its nonblocking requests)
  /// has completed. Valid at epoch boundaries under any threads= value.
  [[nodiscard]] bool done() const;
  /// The tick at which the last rank to finish did so (once done()).
  [[nodiscard]] sim::Tick finished_at() const;

  [[nodiscard]] std::size_t nranks() const { return params_.nranks; }
  [[nodiscard]] sim::NodeId node_of(std::uint16_t rank) const {
    return static_cast<sim::NodeId>(rank % machine_.size());
  }
  [[nodiscard]] sys::Machine& machine() { return machine_; }
  [[nodiscard]] Transport& transport(sim::NodeId n) {
    return *transports_.at(n);
  }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Aggregate transport counters into `reg` under "app." (per node and
  /// machine totals) — byte-identical across thread counts.
  void add_stats(sim::StatRegistry& reg) const;

  /// Snapshot state: per-rank completion flags and collective generation
  /// counters, then every node's transport (mailboxes, reassembly,
  /// mechanism cursors). Call only at an epoch boundary.
  void ckpt_save(ckpt::Writer& w) const;

 private:
  friend class Comm;
  struct RankState {
    RankState(World* w, std::uint16_t r, sim::Kernel& k)
        : comm(w, r), wg(k) {}
    Comm comm;
    sim::WaitGroup wg;
    std::uint8_t finished = 0;  // written only by the owner domain
    sim::Tick finished_at = 0;  // likewise
  };

  sim::Co<void> run_rank(RankState& rs, Program program);

  sys::Machine& machine_;
  Params params_;
  std::vector<std::unique_ptr<Transport>> transports_;  // per node
  std::deque<RankState> ranks_;                         // per rank, stable
  bool launched_ = false;
};

}  // namespace sv::app
