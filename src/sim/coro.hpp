// Coroutine support for simulated sequential processes.
//
// Hardware state machines with long sequential flows (firmware handlers,
// processor programs, DMA engines) are written as C++20 coroutines that
// suspend on simulated time. The primitives are:
//
//   Co<T>       an awaitable, lazily-started coroutine returning T
//   spawn(co)   detach a Co<void> as a root simulation process
//   delay(k,dt) awaitable: resume dt ticks later
//   OneShot     one-shot broadcast event (fire() wakes all waiters, sticky)
//   Signal      recurring broadcast event (pulse() wakes current waiters)
//   Channel<T>  unbounded FIFO with awaitable pop (direct handoff, no races)
//   Semaphore   counting semaphore with awaitable acquire
//
// All wakeups are scheduled through the Kernel at delta 0, so resumption
// order is deterministic and no callback ever runs re-entrantly inside the
// code that triggered it.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdio>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/frame_pool.hpp"
#include "sim/kernel.hpp"
#include "sim/types.hpp"

namespace sv::sim {

// ---------------------------------------------------------------------------
// Co<T>: awaitable coroutine with continuation chaining.
// ---------------------------------------------------------------------------

template <typename T>
class Co;

namespace detail {

struct CoPromiseBase {
  // Coroutine frames recycle through the per-thread FramePool instead of
  // the global heap: one less malloc/free pair per simulated call.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }

  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct CoPromise : CoPromiseBase {
  std::optional<T> value;

  Co<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct CoPromise<void> : CoPromiseBase {
  Co<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// An awaitable coroutine. Lazily started: the body runs only once awaited
/// (or resumed by spawn()). Move-only; the handle is destroyed with the Co.
template <typename T>
class [[nodiscard]] Co {
 public:
  using promise_type = detail::CoPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Co() = default;
  explicit Co(Handle h) : handle_(h) {}
  Co(Co&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Co& operator=(Co&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a Co starts it and suspends the caller until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.exception) {
          std::rethrow_exception(p.exception);
        }
        if constexpr (!std::is_void_v<T>) {
          return std::move(*p.value);
        }
      }
    };
    return Awaiter{handle_};
  }

  Handle release() { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

namespace detail {

template <typename T>
Co<T> CoPromise<T>::get_return_object() {
  return Co<T>(std::coroutine_handle<CoPromise<T>>::from_promise(*this));
}

inline Co<void> CoPromise<void>::get_return_object() {
  return Co<void>(std::coroutine_handle<CoPromise<void>>::from_promise(*this));
}

/// Fire-and-forget root coroutine used by spawn(). Self-destroying.
struct RootTask {
  struct promise_type {
    static void* operator new(std::size_t n) { return FramePool::allocate(n); }
    static void operator delete(void* p) noexcept { FramePool::deallocate(p); }

    RootTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      // A root simulation process must not throw: there is nobody to catch.
      std::fprintf(stderr, "sv::sim: unhandled exception in root task\n");
      std::terminate();
    }
  };
};

}  // namespace detail

/// Detach `co` as a root process. The body starts running immediately (up to
/// its first suspension point) in the caller's context.
inline void spawn(Co<void> co) {
  [](Co<void> c) -> detail::RootTask { co_await std::move(c); }(std::move(co));
}

// ---------------------------------------------------------------------------
// Time awaitables.
// ---------------------------------------------------------------------------

struct DelayAwaiter {
  Kernel& kernel;
  Tick dt;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    kernel.schedule(dt, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// co_await delay(kernel, dt): resume dt ticks later (dt==0 yields).
inline DelayAwaiter delay(Kernel& k, Tick dt) { return DelayAwaiter{k, dt}; }

struct SeqDelayAwaiter {
  Kernel& kernel;
  Tick when;           // absolute
  std::uint64_t seq;   // reserved via Kernel::reserve_seqs
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    kernel.schedule_at_seq(when, seq, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// co_await seq_delay(kernel, when, seq): resume at absolute time `when`
/// under a pre-reserved dispatch sequence number. The slow path of a
/// fast-path-capable operation uses this for every timed phase, so the
/// phase occupies exactly the dispatch-order slot that was reserved at the
/// operation's entry — the mechanism behind fast/slow bit-identity
/// (DESIGN.md §12).
inline SeqDelayAwaiter seq_delay(Kernel& k, Tick when, std::uint64_t seq) {
  return SeqDelayAwaiter{k, when, seq};
}

// ---------------------------------------------------------------------------
// OneShot: sticky one-shot broadcast.
// ---------------------------------------------------------------------------

class OneShot {
 public:
  explicit OneShot(Kernel& k) : kernel_(&k) {}

  void fire() {
    if (fired_) {
      return;
    }
    fired_ = true;
    wake_all();
  }

  [[nodiscard]] bool fired() const { return fired_; }

  auto operator co_await() noexcept {
    struct Awaiter {
      OneShot* self;
      bool await_ready() const noexcept { return self->fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        self->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  void wake_all() {
    auto ws = std::move(waiters_);
    waiters_.clear();
    for (auto h : ws) {
      kernel_->schedule(0, [h] { h.resume(); });
    }
  }

  Kernel* kernel_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// ---------------------------------------------------------------------------
// Signal: recurring broadcast. Waiters see only pulses after they wait.
// ---------------------------------------------------------------------------

class Signal {
 public:
  explicit Signal(Kernel& k) : kernel_(&k) {}

  void pulse() {
    // Swap through a scratch vector instead of moving-and-destroying, so
    // both buffers' capacity survives and the steady pulse/wait cycle
    // allocates nothing (tests/alloc_hook_test.cpp). Waiters registered by
    // the resumed coroutines land in the (empty) waiters_ and only see
    // later pulses, as before.
    scratch_.clear();
    waiters_.swap(scratch_);
    for (auto h : scratch_) {
      kernel_->schedule(0, [h] { h.resume(); });
    }
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      Signal* self;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        self->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Wait until `pred()` holds, re-checking on every pulse.
  template <typename Pred>
  Co<void> until(Pred pred) {
    while (!pred()) {
      co_await *this;
    }
  }

 private:
  Kernel* kernel_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> scratch_;  // recycled by pulse()
};

// ---------------------------------------------------------------------------
// Channel<T>: unbounded FIFO with awaitable pop.
// ---------------------------------------------------------------------------

template <typename T>
class Channel {
 public:
  explicit Channel(Kernel& k) : kernel_(&k) {}

  void push(T v) {
    if (!waiters_.empty()) {
      // Direct handoff: fill the oldest waiter's slot and wake it. The item
      // never touches the queue, so a concurrently-ready popper cannot
      // steal it between wake and resume.
      Waiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot.emplace(std::move(v));
      kernel_->schedule(0, [h = w->handle] { h.resume(); });
      return;
    }
    items_.push_back(std::move(v));
  }

  /// Awaitable pop: returns immediately if an item is queued, else suspends.
  auto pop() noexcept {
    struct Awaiter : Waiter {
      Channel* self;
      explicit Awaiter(Channel* c) : self(c) {}
      bool await_ready() {
        if (!self->items_.empty()) {
          this->slot.emplace(std::move(self->items_.front()));
          self->items_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        this->handle = h;
        self->waiters_.push_back(this);
      }
      T await_resume() { return std::move(*this->slot); }
    };
    return Awaiter{this};
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    if (items_.empty()) {
      return std::nullopt;
    }
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
  };

  Kernel* kernel_;
  Fifo<T> items_;
  Fifo<Waiter*> waiters_;
};

// ---------------------------------------------------------------------------
// WaitGroup: await completion of a dynamic set of detached coroutines.
// ---------------------------------------------------------------------------

/// Counter of in-flight detached tasks with an awaitable join. add() before
/// spawning each task, done() as its last act, wait() to suspend until the
/// count returns to zero. Unlike OneShot it is reusable: the count may grow
/// again after a successful wait. The app runtime uses one per process to
/// guarantee every nonblocking operation has completed before the process
/// reports done.
class WaitGroup {
 public:
  explicit WaitGroup(Kernel& k) : sig_(k) {}

  void add(std::size_t n = 1) { count_ += n; }

  void done() {
    assert(count_ > 0 && "WaitGroup::done without matching add");
    if (--count_ == 0) {
      sig_.pulse();
    }
  }

  [[nodiscard]] std::size_t pending() const { return count_; }

  Co<void> wait() {
    while (count_ > 0) {
      co_await sig_;
    }
  }

 private:
  Signal sig_;
  std::size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Semaphore.
// ---------------------------------------------------------------------------

class Semaphore {
 public:
  Semaphore(Kernel& k, std::size_t initial) : kernel_(&k), count_(initial) {}

  auto acquire() noexcept {
    struct Awaiter {
      Semaphore* self;
      bool await_ready() const {
        if (self->count_ > 0) {
          --self->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        self->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Synchronous acquire attempt — succeeds exactly when the awaitable
  /// acquire() would have completed without suspending. Fast paths use it
  /// to take a permit they have already proven free; on revocation the
  /// permit is handed back with release(), which with no waiters (the only
  /// state a fast path can be granted in) is side-effect-free.
  bool try_acquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  void release() {
    if (!waiters_.empty()) {
      // Direct handoff: the permit goes straight to the oldest waiter.
      auto h = waiters_.front();
      waiters_.pop_front();
      kernel_->schedule(0, [h] { h.resume(); });
      return;
    }
    ++count_;
  }

  [[nodiscard]] std::size_t available() const { return count_; }

 private:
  Kernel* kernel_;
  std::size_t count_;
  Fifo<std::coroutine_handle<>> waiters_;
};

}  // namespace sv::sim
