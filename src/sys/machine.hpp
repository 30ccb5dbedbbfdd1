// The full StarT-Voyager machine: N nodes on the Arctic fat tree (or an
// ideal network for unit tests / ablation).
//
// With Params::threads == 0 the whole machine lives in one event domain
// (one sim::Kernel) and runs sequentially. With threads > 0 the machine is
// partitioned into one domain per node (aP + bus + caches + NIU + sP)
// scheduled by sim::ParallelKernel, with the network's fixed latency as the
// conservative lookahead. Both layouts route cross-node deliveries through
// the same deterministic kernel mailbox, so a partitioned run is
// bit-identical to the sequential one — same stats, same traces, same
// fault schedule. Partitioning requires NetKind::kIdeal: the fat tree
// models shared routers, which have no home domain.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "sim/parallel.hpp"
#include "sys/node.hpp"
#include "trace/trace.hpp"

namespace sv::sys {

class Machine {
 public:
  enum class NetKind { kFatTree, kIdeal };

  struct Params {
    std::size_t nodes = 2;
    NetKind net = NetKind::kFatTree;
    unsigned radix = 4;
    sim::Tick ideal_latency = 500 * sim::kNanosecond;
    Node::Params node;  // template applied to every node
    /// Fault-injection plan. Default-constructed => no injector is ever
    /// created, so a fault-free machine is bit-identical to one built
    /// before the fault subsystem existed.
    fault::Plan fault;
    /// Threads that run domains in partitioned execution (the calling
    /// thread and threads - 1 helpers); 0 = classic sequential
    /// single-domain machine. Any value > 0 partitions into one domain per
    /// node (requires NetKind::kIdeal) and gives identical results for
    /// every thread count.
    unsigned threads = 0;
  };

  explicit Machine(Params params);

  /// The first (and, unpartitioned, only) event domain. Prefer now() /
  /// events_executed() / run_epochs_until() for anything that must hold
  /// machine-wide.
  [[nodiscard]] sim::Kernel& kernel() { return *domains_.front(); }
  /// Domain that simulates node i.
  [[nodiscard]] sim::Kernel& domain(sim::NodeId i) {
    return partitioned() ? *domains_[i] : *domains_.front();
  }
  [[nodiscard]] bool partitioned() const { return domains_.size() > 1; }

  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] Node& node(sim::NodeId i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] msg::AddressMap addr_map() const {
    return msg::AddressMap{nodes_.size()};
  }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Machine-wide simulated time: the last epoch boundary when driven by
  /// run_epochs_until, or the single kernel's clock otherwise.
  [[nodiscard]] sim::Tick now() { return sched_ ? sched_->now() : kernel().now(); }
  /// Events executed across all domains (summed in domain order).
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Sequence numbers issued across all domains. Unlike events_executed(),
  /// this is invariant across fast-path/slow-path runs (the fast paths
  /// reserve the keys of the events they bypass), so it is the count the
  /// stats dump reports.
  [[nodiscard]] std::uint64_t events_scheduled() const;

  /// Epoch length: the minimum latency of any domain-crossing path. For
  /// the ideal network this is its fixed latency; the (never-partitioned)
  /// fat tree uses a 1 us scheduling quantum.
  [[nodiscard]] sim::Tick lookahead() const;

  /// Drive the machine in whole epochs of lookahead() ticks until `pred`
  /// holds at an epoch boundary, everything is idle, or the next epoch
  /// would start past `deadline`. Returns the final value of `pred`.
  /// Sequential and partitioned machines stop at identical boundaries —
  /// use this (not kernel().run_until) wherever results are compared
  /// across thread counts.
  bool run_epochs_until(const std::function<bool()>& pred,
                        sim::Tick deadline);

  /// Attach one tracer per event domain. All instrumented units start
  /// recording from the current simulation time. Idempotent.
  /// Returns the first domain's tracer; use tracers() for the full set
  /// (trace::merge_traces orders their events canonically).
  trace::Tracer& enable_tracing(
      std::size_t capacity = trace::Tracer::kDefaultCapacity);

  /// The first domain's tracer, or nullptr if enable_tracing was never
  /// called. Unpartitioned this is the whole machine's trace.
  [[nodiscard]] trace::Tracer* tracer() {
    return tracers_.empty() ? nullptr : tracers_.front().get();
  }
  /// All per-domain tracers, in domain order (empty before enable_tracing).
  [[nodiscard]] std::vector<trace::Tracer*> tracers();

  /// The fault injector, or nullptr when Params::fault injects nothing.
  [[nodiscard]] fault::Injector* fault_injector() { return fault_.get(); }

 private:
  Params params_;
  // Kernels are declared first so every object holding a Kernel& is
  // destroyed before its domain; sched_ last so helper threads join first.
  std::vector<std::unique_ptr<sim::Kernel>> domains_;
  std::unique_ptr<fault::Injector> fault_;
  std::vector<std::unique_ptr<trace::Tracer>> tracers_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<sim::ParallelKernel> sched_;
  sim::Tick epoch_start_ = 0;  // sequential epoch runner's cursor
};

}  // namespace sv::sys
