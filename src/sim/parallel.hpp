// Conservative parallel scheduling of multiple event domains.
//
// ParallelKernel runs one Kernel per node on a fixed set of executor
// threads — the calling thread and threads - 1 helpers — synchronizing in
// epochs of `lookahead` ticks, the minimum latency of any domain-crossing
// link. Within an epoch every domain advances independently; anything it
// sends to another domain is timestamped at least one full lookahead ahead,
// so it cannot affect the current epoch, and it waits in the sender's own
// outbox. At the epoch barrier the calling thread files every outbox into
// its destinations' mailboxes and the next epoch begins. This is the
// classic Chandy–Misra–Bryant-style conservative scheme with the link
// latency as lookahead (cf. SimBricks): no rollbacks, no null messages —
// just a global epoch barrier. Nothing inside an epoch takes a lock: each
// executor touches only its own domains, outboxes included.
//
// Determinism: the mailbox injection rule in Kernel orders cross-domain
// messages by (tick, source, sequence) regardless of which executor filed
// them first, so the result of a run is independent of thread count and
// bit-identical to a single-domain sequential run that routes the same
// messages through the same rule.
//
// Scalability: the barrier is O(active domains), not O(domains). A domain
// whose event queue and mailbox drain parks: it leaves the active list,
// executors skip it, and the barrier neither runs it nor files anything for
// it. It rejoins only when another domain posts to it: the barrier files
// the outboxes of the domains that ran, and every destination it files to
// re-joins the active list. A 1024-node machine with 8 talkative nodes does
// 8 domains' worth of barrier work per epoch. Parked domains' local clocks
// lag (nothing runs them); quiesce() — called whenever run_epochs_until
// hands control back — advances every lagging idle domain to the global
// epoch boundary, so externally observable state (checkpoints, per-domain
// now()) stays byte-identical to the run-everyone-every-epoch scheme.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
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
  /// `domains` must outlive this object. `threads`, clamped to
  /// [1, domains.size()], is the number of executors: the thread that
  /// calls run_epoch is executor 0, and threads - 1 helper threads start
  /// immediately. Domain d always runs on executor d % threads, so the
  /// assignment — and therefore any per-thread effect — is reproducible.
  /// `lookahead` must be >= 1 tick.
  ParallelKernel(std::vector<Kernel*> domains, unsigned threads,
                 Tick lookahead);
  ~ParallelKernel();

  ParallelKernel(const ParallelKernel&) = delete;
  ParallelKernel& operator=(const ParallelKernel&) = delete;

  /// Run whole epochs until `pred` holds at an epoch boundary, every domain
  /// is idle, or the next epoch would start past `deadline`. Returns the
  /// final value of `pred`. The predicate is only evaluated at barriers
  /// (with every helper waiting), so it may freely inspect machine state.
  bool run_epochs_until(const std::function<bool()>& pred, Tick deadline);

  /// Advance exactly one epoch: the calling thread and the helpers run
  /// their stripes of the active domains to the next boundary, then the
  /// caller files every outbox. An exception from any stripe is rethrown
  /// (the lowest stripe's, if several throw) only after every helper has
  /// finished the epoch; nothing is filed then.
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
  /// Executors: the calling thread plus the helper threads.
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// True when no domain has pending work (valid only at a barrier).
  /// O(1): the active list is exactly the set of non-idle domains.
  [[nodiscard]] bool idle() const { return active_.empty(); }

 private:
  void helper_main(unsigned stripe);
  /// End and join every helper; the destructor's work, and the
  /// constructor's when starting a helper throws.
  void stop_helpers() noexcept;
  /// Run stripe `stripe` of the active domains to the epoch bound.
  [[nodiscard]] std::exception_ptr run_stripe(unsigned stripe) noexcept;
  /// File the outboxes of the domains that ran, then rebuild the active
  /// list from them and every domain they filed to.
  void barrier();

  std::vector<Kernel*> domains_;
  Tick lookahead_;
  Tick epoch_start_ = 0;  // first tick of the next epoch to run
  Tick epoch_end_ = 0;    // inclusive bound handed to the stripes
  Tick now_ = 0;
  unsigned threads_ = 1;

  /// Sorted indices of domains with pending work. Written by the calling
  /// thread at barriers; read by the helpers during an epoch, after the
  /// generation_ bump that releases them.
  std::vector<std::size_t> active_;
  /// Barrier scratch: listed_[d] is set while d is on the list being
  /// rebuilt, so a domain that receives many messages is listed once.
  std::vector<std::uint8_t> listed_;

  /// One slot per stripe: the exception it threw this epoch, if any.
  std::vector<std::exception_ptr> errors_;
  /// Bumped (release) by the caller to start an epoch or, with stop_
  /// set, to end the helpers; each helper waits for it to move.
  std::atomic<std::uint32_t> generation_{0};
  /// Helpers still inside the current epoch; the last one to finish
  /// wakes the caller.
  std::atomic<std::uint32_t> running_{0};
  bool stop_ = false;
  std::vector<std::thread> helpers_;  // last: started once the rest exists
};

}  // namespace sv::sim
