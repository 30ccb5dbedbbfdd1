// Conservative parallel scheduling of multiple event domains.
//
// ParallelKernel runs one Kernel per node on a fixed pool of worker threads,
// synchronizing in epochs of `lookahead` ticks — the minimum latency of any
// domain-crossing link. Within an epoch every domain advances independently;
// anything it sends to another domain is timestamped at least one full
// lookahead ahead, so it cannot affect the current epoch and is staged in the
// destination's mailbox. At the epoch barrier the coordinator commits every
// mailbox and the next epoch begins. This is the classic
// Chandy–Misra–Bryant-style conservative scheme with the link latency as
// lookahead (cf. SimBricks): no rollbacks, no null messages — just a global
// epoch barrier.
//
// Determinism: the mailbox injection rule in Kernel orders cross-domain
// messages by (tick, source, sequence) regardless of which worker staged
// them first, so the result of a run is independent of thread count and
// bit-identical to a single-domain sequential run that routes the same
// messages through the same rule.
//
// Scalability: the barrier is O(active domains), not O(domains). A domain
// whose event queue and mailbox drain parks: it leaves the active list,
// workers skip it, and the barrier neither runs it nor commits its (empty)
// mailbox. It rejoins only when another domain posts to it — Kernel's
// post-notify hook fires on the staged buffer's empty-to-nonempty
// transition and enqueues the domain on the coordinator's wake list. A
// 1024-node machine with 8 talkative nodes does 8 domains' worth of
// barrier work per epoch. Parked domains' local clocks lag (nothing runs
// them); quiesce() — called whenever run_epochs_until hands control back —
// advances every lagging idle domain to the global epoch boundary, so
// externally observable state (checkpoints, per-domain now()) stays
// byte-identical to the run-everyone-every-epoch scheme.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/types.hpp"

namespace sv::sim {

/// Maps a node id to the Kernel (event domain) that simulates it. The
/// single-domain machine and the per-node partitioned machine both present
/// this interface, so shared components (the network, helpers) can be
/// written once against it.
class DomainMap {
 public:
  /// Classic sequential layout: every node lives in `kernel`.
  DomainMap(Kernel& kernel, std::size_t nodes)
      : domains_(nodes, &kernel), partitioned_(false) {}

  /// Partitioned layout: node n lives in domains[n].
  explicit DomainMap(std::vector<Kernel*> domains)
      : domains_(std::move(domains)), partitioned_(true) {}

  [[nodiscard]] Kernel& of(NodeId n) const { return *domains_[n]; }
  [[nodiscard]] std::size_t nodes() const { return domains_.size(); }

  /// True when nodes may live in distinct domains (so handoff between them
  /// must use the mailbox with conservative lookahead).
  [[nodiscard]] bool partitioned() const { return partitioned_; }

 private:
  std::vector<Kernel*> domains_;
  bool partitioned_;
};

/// Epoch-stepped coordinator over per-node Kernels. Not a Kernel itself:
/// callers drive it in whole epochs (run_epochs_until); per-event stepping
/// has no meaning across concurrently-advancing domains.
class ParallelKernel {
 public:
  /// `domains` must outlive this object. `threads` worker threads are
  /// started immediately (clamped to [1, domains.size()]); domain d is
  /// always run by worker d % threads, so the assignment — and therefore
  /// any per-thread effect — is reproducible. Every domain is switched to
  /// deferred-mailbox mode. `lookahead` must be >= 1 tick.
  ParallelKernel(std::vector<Kernel*> domains, unsigned threads,
                 Tick lookahead);
  ~ParallelKernel();

  ParallelKernel(const ParallelKernel&) = delete;
  ParallelKernel& operator=(const ParallelKernel&) = delete;

  /// Run whole epochs until `pred` holds at an epoch boundary, every domain
  /// is idle, or the next epoch would start past `deadline`. Returns the
  /// final value of `pred`. The predicate is only evaluated at barriers
  /// (with all workers parked), so it may freely inspect machine state.
  bool run_epochs_until(const std::function<bool()>& pred, Tick deadline);

  /// Advance exactly one epoch (all active domains to the next boundary,
  /// then commit the mailboxes of active and newly-woken domains).
  void run_epoch();

  /// Advance every parked domain's local clock to now(). Call at a
  /// barrier before inspecting per-domain state that depends on the
  /// clock (checkpoint capture does, via run_epochs_until): parked
  /// domains are idle, so this only advances each clock and event-queue
  /// floor, with no events to run. Idempotent.
  void quiesce();

  /// Time up to which every domain has finished executing (the last epoch
  /// boundary). Matches kernel.now() after the equivalent sequential
  /// run_until.
  [[nodiscard]] Tick now() const { return now_; }

  [[nodiscard]] Tick lookahead() const { return lookahead_; }
  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// True when no domain has pending work (valid only at a barrier).
  /// O(1): the active list is exactly the set of non-idle domains.
  [[nodiscard]] bool idle() const { return active_.empty(); }

  /// Domains on the active list (run every epoch). Parked domains are
  /// the remainder. Valid only at a barrier.
  [[nodiscard]] std::size_t active_domains() const { return active_.size(); }

 private:
  void worker_main(unsigned id);

  std::vector<Kernel*> domains_;
  Tick lookahead_;
  Tick epoch_start_ = 0;  // first tick of the next epoch to run
  Tick epoch_end_ = 0;    // inclusive bound handed to workers
  Tick now_ = 0;

  /// Sorted indices of domains with pending work. Written by the
  /// coordinator at barriers (workers parked); read by workers during an
  /// epoch. The mu_ handshake that releases workers is the
  /// happens-before edge.
  std::vector<std::size_t> active_;
  /// Wake list: domains whose staged mailbox went nonempty this epoch.
  /// Appended by whichever worker thread posted (via Kernel's post-notify
  /// hook), drained by the coordinator at the barrier.
  std::vector<std::size_t> woken_;
  std::mutex wake_mu_;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped to release workers into an epoch
  unsigned running_ = 0;          // workers still inside the current epoch
  bool stop_ = false;
  std::exception_ptr error_;  // first failure from any worker
};

}  // namespace sv::sim
