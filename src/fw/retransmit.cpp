#include "fw/retransmit.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "ckpt/stats_io.hpp"
#include "trace/trace.hpp"

namespace sv::fw {

RetransmitEngine::RetransmitEngine(sim::Kernel& kernel, std::string name,
                                   Params params)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      rearm_(kernel) {
  assert(params_.base_timeout > 0);
}

void RetransmitEngine::bind(RetransmitFn retransmit, GiveUpFn give_up) {
  retransmit_ = std::move(retransmit);
  give_up_ = std::move(give_up);
}

void RetransmitEngine::start() {
  if (started_) {
    throw std::logic_error(name() + ": started twice");
  }
  started_ = true;
  sim::spawn(timer_loop());
}

void RetransmitEngine::arm(sim::NodeId peer) {
  PeerTimer& t = timers_[peer];
  if (t.armed || t.dead) {
    return;
  }
  t.armed = true;
  t.deadline = now() + timeout_for(t.attempts);
  rearm_.pulse();
}

void RetransmitEngine::progress(sim::NodeId peer) {
  PeerTimer& t = timers_[peer];
  t.attempts = 0;
  if (t.armed) {
    t.deadline = now() + params_.base_timeout;
  }
}

void RetransmitEngine::disarm(sim::NodeId peer) {
  timers_[peer].armed = false;
}

bool RetransmitEngine::given_up(sim::NodeId peer) const {
  const auto it = timers_.find(peer);
  return it != timers_.end() && it->second.dead;
}

sim::Tick RetransmitEngine::timeout_for(unsigned attempts) const {
  double t = static_cast<double>(params_.base_timeout);
  for (unsigned i = 0; i < attempts; ++i) {
    t *= kBackoff;
  }
  return static_cast<sim::Tick>(t);
}

void RetransmitEngine::mark(const char* what, sim::NodeId peer) {
  if (trace::Tracer* tr = kernel_.tracer()) {
    const trace::TrackId t = tr->track_for(name(), "fw");
    tr->instant(t, std::string(what) + " n" + std::to_string(peer), now());
  }
}

sim::Co<void> RetransmitEngine::timer_loop() {
  for (;;) {
    // Earliest armed deadline; sleep on rearm_ when nothing is pending.
    sim::Tick next = sim::kTickInvalid;
    for (const auto& [peer, t] : timers_) {
      if (t.armed && !t.dead && t.deadline < next) {
        next = t.deadline;
      }
    }
    if (next == sim::kTickInvalid) {
      co_await rearm_;
      continue;
    }
    if (next > now()) {
      // Oversleeping is fine: deadlines only move outward while we sleep,
      // and the loop re-scans after every wakeup.
      co_await sim::delay(kernel_, next - now());
      continue;
    }

    // Fire every expired timer. std::map iterators stay valid across the
    // co_await (arm() may insert, nothing erases).
    for (auto& [peer, t] : timers_) {
      if (!t.armed || t.dead || t.deadline > now()) {
        continue;
      }
      ++t.attempts;
      if (t.attempts > params_.give_up_after) {
        t.dead = true;
        t.armed = false;
        stats_.giveups.inc();
        mark("retx give-up", peer);
        if (give_up_) {
          give_up_(peer);
        }
        continue;
      }
      stats_.timeouts.inc();
      mark("retx timeout", peer);
      t.deadline = now() + timeout_for(t.attempts);
      if (retransmit_) {
        co_await retransmit_(peer);
      }
    }
  }
}

void RetransmitEngine::ckpt_save(ckpt::Writer& w) const {
  w.u64(timers_.size());
  for (const auto& [peer, t] : timers_) {
    w.u32(peer);
    w.b(t.armed);
    w.b(t.dead);
    w.u32(t.attempts);
    w.tick(t.deadline);
  }
  ckpt::save(w, stats_.timeouts);
  ckpt::save(w, stats_.giveups);
}

}  // namespace sv::fw
