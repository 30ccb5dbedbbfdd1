#include "sim/parallel.hpp"

#include <algorithm>
#include <stdexcept>

namespace sv::sim {

ParallelKernel::ParallelKernel(std::vector<Kernel*> domains, unsigned threads,
                               Tick lookahead)
    : domains_(std::move(domains)), lookahead_(lookahead) {
  if (domains_.empty()) {
    throw std::invalid_argument("ParallelKernel: no domains");
  }
  if (lookahead_ == 0) {
    throw std::invalid_argument("ParallelKernel: lookahead must be >= 1");
  }
  threads_ = std::clamp<unsigned>(threads, 1U,
                                  static_cast<unsigned>(domains_.size()));
  active_.reserve(domains_.size());
  listed_.assign(domains_.size(), 0);
  errors_.resize(threads_);
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    domains_[d]->domain_ = static_cast<std::uint32_t>(d);
    // Mail posted before the machine was partitioned is filed now, as in
    // a single domain.
    domains_[d]->file_outbox([](const Kernel&) {});
    // Everyone starts active: nodes schedule their service loops during
    // construction, and a truly idle domain parks after the first epoch.
    active_.push_back(d);
  }
  helpers_.reserve(threads_ - 1);
  try {
    for (unsigned stripe = 1; stripe < threads_; ++stripe) {
      helpers_.emplace_back([this, stripe] { helper_main(stripe); });
    }
  } catch (...) {
    stop_helpers();  // join the helpers that did start
    throw;
  }
}

ParallelKernel::~ParallelKernel() { stop_helpers(); }

void ParallelKernel::stop_helpers() noexcept {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& h : helpers_) {
    h.join();
  }
}

std::exception_ptr ParallelKernel::run_stripe(unsigned stripe) noexcept {
  // Executors partition the active list by the fixed rule "domain d runs
  // on executor d % threads", so any per-thread effect stays reproducible.
  try {
    for (const std::size_t d : active_) {
      if (d % threads_ == stripe) {
        domains_[d]->run_until(epoch_end_);
      }
    }
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

void ParallelKernel::helper_main(unsigned stripe) {
  std::uint32_t seen = 0;
  while (true) {
    // The acquire pairs with run_epoch's release bump: active_ and
    // epoch_end_ (or stop_) were written before it.
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_) {
      return;
    }
    errors_[stripe] = run_stripe(stripe);
    // Release: the caller reads this stripe's domains and errors_ slot
    // once it sees the count reach zero.
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      running_.notify_one();
    }
  }
}

void ParallelKernel::run_epoch() {
  epoch_end_ = epoch_start_ + lookahead_ - 1;
  if (!helpers_.empty()) {
    running_.store(static_cast<std::uint32_t>(helpers_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  errors_[0] = run_stripe(0);
  for (std::uint32_t n = running_.load(std::memory_order_acquire); n != 0;
       n = running_.load(std::memory_order_acquire)) {
    running_.wait(n, std::memory_order_acquire);
  }
  // Every helper has finished the epoch, whatever any stripe threw. Each
  // stripe rewrites its slot every epoch, so no error outlives its epoch.
  for (const std::exception_ptr& err : errors_) {
    if (err) {
      std::rethrow_exception(err);
    }
  }
  barrier();
  now_ = epoch_end_;
  epoch_start_ += lookahead_;
}

void ParallelKernel::barrier() {
  // Only the domains that ran this epoch can have posted. Filing their
  // outboxes re-admits every destination: O(active + filed messages),
  // never O(domains).
  const std::size_t ran = active_.size();
  for (std::size_t i = 0; i < ran; ++i) {
    listed_[active_[i]] = 1;
  }
  for (std::size_t i = 0; i < ran; ++i) {
    domains_[active_[i]]->file_outbox([this](const Kernel& dest) {
      if (listed_[dest.domain_] == 0) {
        listed_[dest.domain_] = 1;
        active_.push_back(dest.domain_);
      }
    });
  }
  std::sort(active_.begin(), active_.end());
  std::erase_if(active_, [this](std::size_t d) {
    listed_[d] = 0;
    return domains_[d]->idle();
  });
}

void ParallelKernel::quiesce() {
  for (Kernel* d : domains_) {
    if (d->now() < now_) {
      // Parked domains are idle by construction, so this only advances
      // the clock and the event-queue floor — no events can run.
      d->run_until(now_);
    }
  }
}

bool ParallelKernel::run_epochs_until(const std::function<bool()>& pred,
                                      Tick deadline) {
  // Between calls, callers may have scheduled work directly onto a parked
  // domain's kernel (drivers starting coroutines do exactly that), or
  // posted from outside any epoch. One O(domains) rescan per call (not
  // per epoch) files every outbox and re-admits every busy domain;
  // mid-run, a parked domain is only reachable through a post, which the
  // barrier files.
  for (Kernel* k : domains_) {
    k->file_outbox([](const Kernel&) {});
  }
  active_.clear();
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    if (!domains_[d]->idle()) {
      active_.push_back(d);
    }
  }
  const auto finish = [this](bool result) {
    quiesce();
    return result;
  };
  if (pred()) {
    return finish(true);
  }
  while (epoch_start_ <= deadline) {
    run_epoch();
    if (pred()) {
      return finish(true);
    }
    if (idle()) {
      return finish(false);
    }
  }
  return finish(false);
}

}  // namespace sv::sim
