// Timeout-retransmit engine for the reliable-delivery layer.
//
// Plays the role of a firmware handler on the service processor: it keeps
// one timer per peer with outstanding unacknowledged frames, fires a
// retransmission when the timer expires, backs the timeout off
// exponentially on repeated expiries, and after a configurable number of
// fruitless attempts declares the peer dead (the give-up callback — the
// msg::ReliableChannel wires this to the NIU's tx-queue shutdown
// machinery, so an unreachable peer surfaces exactly like a protection
// shutdown).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace sv::fw {

class RetransmitEngine : public sim::SimObject {
 public:
  /// Timeout multiplier per consecutive expiry.
  static constexpr double kBackoff = 2.0;
  static_assert(kBackoff >= 1.0);

  struct Params {
    sim::Tick base_timeout = 50 * sim::kMicrosecond;
    unsigned give_up_after = 8;  // expiries with no progress => peer dead
  };

  /// Resend everything still outstanding to `peer`.
  using RetransmitFn = std::function<sim::Co<void>(sim::NodeId peer)>;
  /// The peer has been declared dead (called at most once per peer).
  using GiveUpFn = std::function<void(sim::NodeId peer)>;

  struct Stats {
    sim::Counter timeouts;  // expiries that triggered a retransmission
    sim::Counter giveups;
  };

  RetransmitEngine(sim::Kernel& kernel, std::string name, Params params);

  void bind(RetransmitFn retransmit, GiveUpFn give_up);

  /// Spawn the timer process. Call once, after bind().
  void start();

  /// Ensure a timer is running for `peer` (no-op if already armed or dead).
  void arm(sim::NodeId peer);
  /// Forward progress (a new cumulative ACK): reset the backoff and push
  /// the deadline out from now.
  void progress(sim::NodeId peer);
  /// Nothing outstanding any more: stop the timer.
  void disarm(sim::NodeId peer);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Snapshot state: per-peer timers (armed/dead flags, backoff attempt
  /// count, absolute deadline) and the timeout/give-up counters.
  void ckpt_save(ckpt::Writer& w) const;

 private:
  struct PeerTimer {
    bool armed = false;
    bool dead = false;
    unsigned attempts = 0;  // consecutive expiries without progress
    sim::Tick deadline = 0;
  };

  [[nodiscard]] sim::Tick timeout_for(unsigned attempts) const;
  sim::Co<void> timer_loop();
  void mark(const char* what, sim::NodeId peer);

  Params params_;
  RetransmitFn retransmit_;
  GiveUpFn give_up_;
  Stats stats_;
  std::map<sim::NodeId, PeerTimer> timers_;
  sim::Signal rearm_;
  bool started_ = false;
};

}  // namespace sv::fw
