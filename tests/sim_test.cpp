// Unit tests for the simulation kernel: event ordering, coroutines,
// synchronization primitives, statistics, configuration, PRNG.
#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "ckpt/io.hpp"
#include "sim/config.hpp"
#include "sim/coro.hpp"
#include "sim/fifo.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace sv::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> order;
  q.push(20, [&] { order.push_back(2); });
  q.push(10, [&] { order.push_back(0); });
  q.push(10, [&] { order.push_back(1); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EqualTickFifoAcrossFloorAdvance) {
  // Events at one tick, some pushed while it lay far ahead of the floor
  // and some after the floor came close, must still pop in insertion
  // order: the (tick, seq) key alone decides.
  EventQueue q;
  std::vector<int> order;
  const Tick t = 65'636;
  q.push(t, [&] { order.push_back(0); });
  q.push(1, [&] { order.push_back(-1); });
  EXPECT_EQ(q.pop().when, 1u);                 // floor advances past 1
  order.clear();
  q.push(t, [&] { order.push_back(1); });
  q.advance(200);                              // t now close to the floor
  q.push(t, [&] { order.push_back(2); });
  q.push(t, [&] { order.push_back(3); });
  while (!q.empty()) {
    EXPECT_EQ(q.next_time(), t);
    q.pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, LongSelfReschedulingChainStaysOrdered) {
  // March a self-rescheduling chain with a step of about a third of
  // 64 Ki ticks for 64 hops; ordering must hold all the way.
  EventQueue q;
  constexpr Tick kStep = 21'852;
  Tick last = 0;
  std::uint64_t fired = 0;
  struct Chain {
    EventQueue* q;
    Tick* last;
    std::uint64_t* fired;
    Tick at;
    void operator()() const {
      EXPECT_GE(at, *last);
      *last = at;
      ++*fired;
      if (*fired < 64) {
        q->push(at + kStep, Chain{q, last, fired, at + kStep});
      }
    }
  };
  q.push(kStep, Chain{&q, &last, &fired, kStep});
  while (!q.empty()) {
    auto p = q.pop();
    q.advance(p.when);
    p.fn();
  }
  EXPECT_EQ(fired, 64u);
  EXPECT_EQ(last, 64 * kStep);
}

TEST(EventQueue, FarFutureEventsStayOrdered) {
  // Events up to five 64 Ki-tick spans ahead interleaved with near ones;
  // pops must come out in global (tick, seq) order.
  EventQueue q;
  std::vector<Tick> pops;
  for (Tick t : {Tick{327'680}, Tick{3}, Tick{131'072}, Tick{50},
                 Tick{65'537}}) {
    q.push(t, [] {});
    pops.push_back(t);
  }
  std::sort(pops.begin(), pops.end());
  for (const Tick expect : pops) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.next_time(), expect);
    auto p = q.pop();
    EXPECT_EQ(p.when, expect);
    q.advance(p.when);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, OutOfOrderBurstPopsSorted) {
  // 64 events pushed in scrambled time order over 13 ticks: pops come
  // out in time order, and same-tick events in push order.
  EventQueue q;
  constexpr int kN = 64;
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) {
    const Tick t = 1 + static_cast<Tick>((kN - 1 - i) % 13);
    q.push(t, [&order, i] { order.push_back(i); });
  }
  Tick prev = 0;
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GE(p.when, prev);
    prev = p.when;
    p.fn();
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  // Same-tick events (same value of (kN-1-i) % 13) must pop in push order.
  for (std::size_t j = 1; j < order.size(); ++j) {
    if ((kN - 1 - order[j]) % 13 == (kN - 1 - order[j - 1]) % 13) {
      EXPECT_LT(order[j - 1], order[j]);
    }
  }
}

TEST(EventQueue, TryPopRespectsBound) {
  EventQueue q;
  q.push(100, [] {});
  auto none = q.try_pop(99);
  EXPECT_EQ(none.when, kTickInvalid);
  EXPECT_FALSE(static_cast<bool>(none.fn));
  EXPECT_EQ(q.size(), 1u);  // declined pop leaves the queue intact
  auto got = q.try_pop(100);
  EXPECT_EQ(got.when, 100u);
  EXPECT_TRUE(static_cast<bool>(got.fn));
  EXPECT_TRUE(q.empty());
}

// Drives random push / reserve_seqs + push_at_seq / try_pop / advance
// sequences against a sorted (tick, seq) reference, at pending depths from
// 1 to 8 Ki, and checks every popped key, which callback came with it, and
// that ckpt_save writes the reference's key list.
TEST(EventQueue, MatchesReferenceOrder) {
  struct Ref {
    Tick when;
    std::uint64_t seq;
    int id;
    bool operator<(const Ref& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };
  auto ckpt_bytes = [](const EventQueue& q) {
    ckpt::Writer w;
    q.ckpt_save(w);
    return w.data();
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t depth : {1u, 2u, 5u, 64u, 1024u, 8192u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " depth " << depth);
      Rng rng(seed * 100 + depth);
      EventQueue q;
      std::set<Ref> ref;
      std::vector<std::uint64_t> reserved;
      Tick floor = 0;
      int next_id = 0;
      int ran = -1;
      auto push = [&](Tick when, bool at_reserved) {
        const int id = next_id++;
        std::uint64_t seq;
        if (at_reserved) {
          const std::size_t i = rng.below(reserved.size());
          seq = reserved[i];
          reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(i));
          q.push_at_seq(when, seq, [&ran, id] { ran = id; });
        } else {
          seq = q.total_scheduled();
          q.push(when, [&ran, id] { ran = id; });
        }
        ref.insert(Ref{when, seq, id});
      };
      auto expect_pop = [&](Tick bound) {
        EventQueue::Popped p = q.try_pop(bound);
        if (ref.empty() || ref.begin()->when > bound) {
          ASSERT_EQ(p.when, kTickInvalid);
          ASSERT_FALSE(static_cast<bool>(p.fn));
          return;
        }
        const Ref front = *ref.begin();
        ref.erase(ref.begin());
        ASSERT_EQ(p.when, front.when);
        ASSERT_EQ(p.seq, front.seq);
        p.fn();
        ASSERT_EQ(ran, front.id);
        floor = front.when;
      };
      while (ref.size() < depth) {
        push(floor + rng.below(2000), false);
      }
      const std::size_t ops = depth + 4000;
      for (std::size_t op = 0; op < ops; ++op) {
        // Hover around the target depth: fill below it, mostly pop above.
        const bool fill = ref.size() < depth;
        const std::uint64_t r = rng.below(16);
        if (r < 2) {
          const std::uint64_t base = q.reserve_seqs(1 + rng.below(4));
          for (std::uint64_t s = base; s < q.total_scheduled(); ++s) {
            reserved.push_back(s);
          }
        } else if (r < 4 && !reserved.empty() && (fill || r == 2)) {
          // Often at the tick of a pending event, behind fresher keys.
          const Tick when = !ref.empty() && rng.chance(0.5)
                                ? std::prev(ref.end())->when
                                : floor + rng.below(2000);
          push(when, true);
        } else if (r < 10 && (fill || r < 6)) {
          push(floor + rng.below(rng.chance(0.1) ? 1'000'000 : 2000), false);
        } else if (r < 15) {
          expect_pop(floor + rng.below(3000));
        } else {
          const Tick to = floor + rng.below(500);
          const Tick limit = ref.empty() ? to : ref.begin()->when;
          floor = std::min(to, limit);
          q.advance(floor);
        }
        if (HasFatalFailure()) {
          return;
        }
        ASSERT_EQ(q.size(), ref.size());
        if (!ref.empty()) {
          ASSERT_EQ(q.next_time(), ref.begin()->when);
        }
        if (op % 997 == 0 || op + 1 == ops) {
          ckpt::Writer w;
          w.tick(floor);
          w.u64(q.total_scheduled());
          w.u64(ref.size());
          for (const Ref& k : ref) {
            w.tick(k.when);
            w.u64(k.seq);
          }
          ASSERT_EQ(ckpt_bytes(q), w.data()) << "at op " << op;
        }
      }
      while (!ref.empty()) {
        expect_pop(kTickInvalid);
        if (HasFatalFailure()) {
          return;
        }
      }
      EXPECT_TRUE(q.empty());
    }
  }
}

TEST(EventQueue, SequencePastTheKeyLimitThrows) {
  EventQueue q;
  q.reserve_seqs(EventQueue::kSeqLimit - 1);
  q.push(5, [] {});  // the last sequence number the key can carry
  EXPECT_THROW(q.push(5, [] {}), std::overflow_error);
  EXPECT_THROW(q.push_at_seq(6, EventQueue::kSeqLimit, [] {}),
               std::overflow_error);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().seq, EventQueue::kSeqLimit - 1);
}

TEST(Kernel, AdvancesTimeMonotonically) {
  Kernel k;
  std::vector<Tick> times;
  k.schedule(100, [&] { times.push_back(k.now()); });
  k.schedule(50, [&] { times.push_back(k.now()); });
  k.schedule(50, [&] { k.schedule(25, [&] { times.push_back(k.now()); }); });
  k.run();
  EXPECT_EQ(times, (std::vector<Tick>{50, 75, 100}));
}

TEST(Kernel, RunUntilStopsAtBoundary) {
  Kernel k;
  int fired = 0;
  k.schedule(10, [&] { ++fired; });
  k.schedule(20, [&] { ++fired; });
  k.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 15u);
  k.run();
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, ZeroDelayRunsAfterCurrentEvent) {
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(0);
    k.schedule(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, EventLimitThrows) {
  Kernel k;
  k.set_event_limit(10);
  std::function<void()> loop = [&] { k.schedule(1, loop); };
  k.schedule(1, loop);
  EXPECT_THROW(k.run(), std::runtime_error);
}

TEST(Kernel, EventLimitIsPerRun) {
  // The budget is per run()/run_until() call: a limit that each individual
  // run stays under must never trip across runs. (This regressed once —
  // the counter was cumulative, so enough short runs eventually threw.)
  Kernel k;
  k.set_event_limit(10);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      k.schedule(1, [] {});
    }
    EXPECT_NO_THROW(k.run());
  }
  EXPECT_EQ(k.events_executed(), 40u);

  // And run_until budgets the same way.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      k.schedule(1, [] {});
    }
    EXPECT_NO_THROW(k.run_until(k.now() + 10));
  }
}

TEST(Kernel, SchedulePastThrows) {
  Kernel k;
  k.schedule(10, [] {});
  k.run();
  EXPECT_THROW(k.schedule_abs(5, [] {}), std::logic_error);
}

TEST(Kernel, ScheduleAbsAtNowRunsThisInstant) {
  // when == now() is valid: the event runs after currently-queued work at
  // the same timestamp, exactly like schedule(0, ...).
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(0);
    k.schedule_abs(k.now(), [&] { order.push_back(1); });
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(k.now(), 10u);
}

/// Counts its own copies and moves; records the count when it runs.
struct MoveCounter {
  int* moves;
  int* at_call;
  MoveCounter(int* m, int* c) : moves(m), at_call(c) {}
  MoveCounter(const MoveCounter& o) : moves(o.moves), at_call(o.at_call) {
    ++*moves;
  }
  MoveCounter(MoveCounter&& o) noexcept
      : moves(o.moves), at_call(o.at_call) {
    ++*moves;
  }
  void operator()() const { *at_call = *moves; }
};

TEST(Kernel, ScheduledCallbackRelocatesAtMostTwice) {
  // Built in its slab slot at push, moved out once at pop (DESIGN.md §11.2).
  Kernel k;
  int moves = 0;
  int at_call = -1;
  k.schedule(5, MoveCounter{&moves, &at_call});
  k.run();
  EXPECT_LE(at_call, 2);
  EXPECT_GE(at_call, 0);  // it ran

  int seq_moves = 0;
  int seq_at_call = -1;
  const std::uint64_t seq = k.reserve_seqs(1);
  k.schedule_at_seq(k.now() + 5, seq, MoveCounter{&seq_moves, &seq_at_call});
  k.run();
  EXPECT_LE(seq_at_call, 2);
  EXPECT_GE(seq_at_call, 0);
}

TEST(Kernel, MailboxOrdersByTickSourceSequence) {
  // post() arrival order is scrambled on purpose; delivery must follow the
  // (when, src, seq) key alone.
  Kernel k;
  std::vector<int> order;
  k.post(k, 20, /*src=*/1, /*seq=*/2, [&] { order.push_back(3); });
  k.post(k, 10, /*src=*/2, /*seq=*/1, [&] { order.push_back(2); });
  k.post(k, 10, /*src=*/0, /*seq=*/9, [&] { order.push_back(0); });
  k.post(k, 10, /*src=*/1, /*seq=*/5, [&] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(k.now(), 20u);
}

TEST(Kernel, MailboxInjectsAfterQueuedBeforeScheduledDuring) {
  // At its tick, a mailbox message runs after every event that was already
  // queued there, but before anything those events schedule for the same
  // tick — the injection point is where the destination's clock first
  // reaches the tick.
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(0);
    k.schedule(0, [&] { order.push_back(2); });
  });
  k.post(k, 10, 0, 1, [&] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Kernel, PostWaitsInSendersOutboxUntilTheBarrier) {
  // Domain 0 posts to domain 1 at t=10 for t=150. The message waits in
  // domain 0's outbox, invisible to domain 1, until the epoch barrier
  // files it; then domain 1 runs it at its tick. One executor, so the
  // events may inspect the other domain.
  constexpr Tick kLookahead = 100;
  std::vector<Kernel> ks(2);
  Tick fired_at = 0;
  bool seen_before_barrier = true;
  ks[0].schedule(10, [&] {
    ks[0].post(ks[1], 150, /*src=*/0, /*seq=*/1,
               [&] { fired_at = ks[1].now(); });
    seen_before_barrier = !ks[1].idle();
  });
  ks[0].schedule(90, [&] { seen_before_barrier |= !ks[1].idle(); });
  ParallelKernel pk({&ks[0], &ks[1]}, 1, kLookahead);

  pk.run_epoch();
  EXPECT_FALSE(seen_before_barrier);
  EXPECT_FALSE(ks[1].idle());  // filed at the barrier
  EXPECT_EQ(ks[1].next_event_time(), 150u);
  EXPECT_EQ(fired_at, 0u);

  pk.run_epoch();
  EXPECT_EQ(fired_at, 150u);
  EXPECT_TRUE(pk.idle());
}

TEST(Clock, CycleConversions) {
  Clock c(15000);  // 66.67 MHz
  EXPECT_EQ(c.to_ticks(4), 60000u);
  EXPECT_EQ(c.to_cycles(60000), 4u);
  EXPECT_EQ(c.until_next_edge(0), 0u);
  EXPECT_EQ(c.until_next_edge(1), 14999u);
  EXPECT_EQ(c.until_next_edge(15000), 0u);
  EXPECT_NEAR(c.mhz(), 66.67, 0.01);
}

TEST(Coro, DelayResumesAtRightTime) {
  Kernel k;
  Tick seen = 0;
  spawn([](Kernel* kp, Tick* out) -> Co<void> {
    co_await delay(*kp, 123);
    *out = kp->now();
  }(&k, &seen));
  k.run();
  EXPECT_EQ(seen, 123u);
}

TEST(Coro, NestedAwaitPropagatesValues) {
  Kernel k;
  int result = 0;
  spawn([](Kernel* kp, int* out) -> Co<void> {
    auto inner = [](Kernel* kk) -> Co<int> {
      co_await delay(*kk, 5);
      co_return 21;
    };
    const int a = co_await inner(kp);
    const int b = co_await inner(kp);
    *out = a + b;
  }(&k, &result));
  k.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(k.now(), 10u);
}

TEST(Coro, ExceptionPropagatesThroughCo) {
  Kernel k;
  bool caught = false;
  spawn([](Kernel* kp, bool* flag) -> Co<void> {
    auto bad = [](Kernel* kk) -> Co<void> {
      co_await delay(*kk, 1);
      throw std::runtime_error("boom");
    };
    try {
      co_await bad(kp);
    } catch (const std::runtime_error&) {
      *flag = true;
    }
  }(&k, &caught));
  k.run();
  EXPECT_TRUE(caught);
}

TEST(OneShot, WakesAllWaitersAndStaysFired) {
  Kernel k;
  OneShot ev(k);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](OneShot* e, int* n) -> Co<void> {
      co_await *e;
      ++*n;
    }(&ev, &woken));
  }
  k.schedule(10, [&] { ev.fire(); });
  k.run();
  EXPECT_EQ(woken, 3);
  // Late waiter resumes immediately.
  spawn([](OneShot* e, int* n) -> Co<void> {
    co_await *e;
    ++*n;
  }(&ev, &woken));
  k.run();
  EXPECT_EQ(woken, 4);
}

TEST(Signal, OnlyWakesCurrentWaiters) {
  Kernel k;
  Signal sig(k);
  int woken = 0;
  spawn([](Signal* s, int* n) -> Co<void> {
    co_await *s;
    ++*n;
    co_await *s;
    ++*n;
  }(&sig, &woken));
  k.schedule(10, [&] { sig.pulse(); });
  k.run();
  EXPECT_EQ(woken, 1);  // second wait needs a second pulse
  k.schedule(10, [&] { sig.pulse(); });
  k.run();
  EXPECT_EQ(woken, 2);
}

TEST(Signal, UntilChecksPredicateOnEveryPulse) {
  Kernel k;
  Signal sig(k);
  int x = 0;
  bool done = false;
  spawn([](Signal* s, int* xp, bool* d) -> Co<void> {
    co_await s->until([xp] { return *xp >= 3; });
    *d = true;
  }(&sig, &x, &done));
  for (Tick t = 1; t <= 5; ++t) {
    k.schedule(t * 10, [&] {
      ++x;
      sig.pulse();
    });
  }
  k.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(x, 5);
}

TEST(Channel, FifoOrderAndDirectHandoff) {
  Kernel k;
  Channel<int> ch(k);
  std::vector<int> got;
  spawn([](Channel<int>* c, std::vector<int>* out) -> Co<void> {
    for (int i = 0; i < 4; ++i) {
      out->push_back(co_await c->pop());
    }
  }(&ch, &got));
  ch.push(1);
  ch.push(2);
  k.schedule(10, [&] { ch.push(3); });
  k.schedule(20, [&] { ch.push(4); });
  k.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Channel, TryPopDoesNotStealFromWaiters) {
  Kernel k;
  Channel<int> ch(k);
  int got = -1;
  spawn([](Channel<int>* c, int* out) -> Co<void> {
    *out = co_await c->pop();
  }(&ch, &got));
  k.run();
  ch.push(7);
  // The waiter owns the item even before it resumes.
  EXPECT_FALSE(ch.try_pop().has_value());
  k.run();
  EXPECT_EQ(got, 7);
}

TEST(Semaphore, MutualExclusionAndFifoWakeup) {
  Kernel k;
  Semaphore sem(k, 1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    spawn([](Kernel* kp, Semaphore* s, std::vector<int>* out,
             int id) -> Co<void> {
      co_await s->acquire();
      out->push_back(id);
      co_await delay(*kp, 10);
      s->release();
    }(&k, &sem, &order, i));
  }
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(k.now(), 30u);
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Fifo, OrderHoldsAcrossGrowthWhileWrapped) {
  Fifo<int> q;
  EXPECT_EQ(q.capacity(), 0u);
  int next_in = 0;
  int next_out = 0;
  q.push_back(next_in++);
  const std::size_t cap = q.capacity();
  while (q.size() < cap) {
    q.push_back(next_in++);
  }
  // Pop and push so the front moves off slot 0: the ring wraps.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
    q.push_back(next_in++);
  }
  ASSERT_EQ(q.capacity(), cap);
  // A full, wrapped ring grows twice; order survives both moves.
  while (q.capacity() < 4 * cap) {
    q.push_back(next_in++);
  }
  EXPECT_TRUE(std::has_single_bit(q.capacity()));
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.capacity(), 4 * cap);  // popping keeps the capacity
}

TEST(Fifo, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> q;
  for (int i = 0; i < 9; ++i) {
    q.push_back(std::make_unique<int>(i));
  }
  Fifo<std::unique_ptr<int>> moved(std::move(q));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
  for (int i = 0; i < 9; ++i) {
    ASSERT_NE(moved.front(), nullptr);
    EXPECT_EQ(*moved.front(), i);
    moved.pop_front();
  }
}

/// Counts live instances: constructions (including moves) minus
/// destructions.
struct Counted {
  static inline int live = 0;
  int v;
  explicit Counted(int x) : v(x) { ++live; }
  Counted(Counted&& o) noexcept : v(o.v) { ++live; }
  Counted& operator=(Counted&&) = delete;
  ~Counted() { --live; }
};

TEST(Fifo, DestroysEveryLiveElementExactlyOnce) {
  Counted::live = 0;
  {
    Fifo<Counted> a;
    for (int i = 0; i < 11; ++i) {  // grows through 4, 8, 16
      a.push_back(Counted(i));
    }
    for (int i = 0; i < 5; ++i) {
      a.pop_front();
    }
    EXPECT_EQ(Counted::live, 6);
    Fifo<Counted> b;
    for (int i = 0; i < 3; ++i) {
      b.push_back(Counted(100 + i));
    }
    EXPECT_EQ(Counted::live, 9);
    b = std::move(a);  // b's three are destroyed, a's six move over
    EXPECT_EQ(Counted::live, 6);
    EXPECT_EQ(b.front().v, 5);
    b = Fifo<Counted>();
    EXPECT_EQ(Counted::live, 0);
    a.push_back(Counted(7));  // a moved-from Fifo is usable again
    EXPECT_EQ(Counted::live, 1);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(Stats, Histogram) {
  Histogram h;
  h.sample(1);
  h.sample(2);
  h.sample(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_GE(h.percentile(100), 1000u);
}

TEST(Stats, HistogramPercentileEdges) {
  Histogram empty;
  EXPECT_EQ(empty.percentile(0), 0u);
  EXPECT_EQ(empty.percentile(50), 0u);
  EXPECT_EQ(empty.percentile(100), 0u);

  Histogram h;
  h.sample(2);
  h.sample(1000);
  EXPECT_EQ(h.percentile(0), 2u);     // p=0 is the minimum
  EXPECT_EQ(h.percentile(-5), 2u);    // out-of-range p clamps
  EXPECT_EQ(h.percentile(100), 1000u);
  EXPECT_EQ(h.percentile(200), 1000u);

  // A single exact value must round-trip at every percentile, not be
  // rounded up to its bucket's power-of-two boundary.
  Histogram one;
  one.sample(1000);
  EXPECT_EQ(one.percentile(50), 1000u);
  EXPECT_EQ(one.percentile(100), 1000u);
}

TEST(Stats, RegistryDumpJson) {
  StatRegistry reg;
  reg.set("a.b", 1.5);
  reg.set("c", 3);
  std::ostringstream os;
  reg.dump_json(os);
  EXPECT_EQ(os.str(), "{\n  \"a.b\": 1.5,\n  \"c\": 3\n}\n");
}

TEST(Stats, BusyTrackerOccupancy) {
  BusyTracker b;
  b.add_busy(25);
  b.add_busy(25);
  EXPECT_DOUBLE_EQ(b.occupancy(100), 0.5);
  EXPECT_DOUBLE_EQ(b.occupancy(0), 0.0);
}

TEST(Config, TypedAccessAndParsing) {
  auto cfg = Config::from_args({"a=1", "b=2.5", "c=true", "d=hello"});
  EXPECT_EQ(cfg.get_u64("a", 0), 1u);
  EXPECT_DOUBLE_EQ(cfg.get_double("b", 0), 2.5);
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_EQ(cfg.get_string("d"), "hello");
  EXPECT_EQ(cfg.get_u64("missing", 42), 42u);
  EXPECT_THROW(Config::from_args({"novalue"}), std::invalid_argument);
  EXPECT_THROW((void)Config::from_args({"x=maybe"}).get_bool("x", false),
               std::invalid_argument);
}

TEST(Config, MalformedNumbersThrowNamingTheKey) {
  auto cfg = Config::from_args({"hex=0x10", "abc=abc", "tail=12abc",
                                "neg=-1", "empty=", "huge=99999999999999999999",
                                "rate=0.5x", "blank= 0.5", "plus=+0.5",
                                "nan=nan"});
  EXPECT_EQ(cfg.get_u64("hex", 0), 16u);
  for (const char* key : {"abc", "tail", "neg", "empty", "huge"}) {
    try {
      (void)cfg.get_u64(key, 0);
      ADD_FAILURE() << key << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(std::string(key) + ":", 0), 0u)
          << e.what();
    }
  }
  for (const char* key : {"rate", "empty", "blank", "plus", "nan"}) {
    EXPECT_THROW((void)cfg.get_double(key, 0), std::invalid_argument) << key;
  }
}

TEST(Rng, DeterministicAndUniform) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  Rng c(43);
  EXPECT_NE(a.next(), c.next());

  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

class HistogramBucketTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramBucketTest, SampleLandsInCorrectBucket) {
  Histogram h;
  const std::uint64_t v = GetParam();
  h.sample(v);
  // Bucket i covers (2^(i-1), 2^i]; bucket 0 covers 0..1.
  const std::size_t expected =
      v <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(v - 1));
  const auto& b = h.buckets();
  ASSERT_GT(b.size(), expected);
  EXPECT_EQ(b[expected], 1u);
  std::uint64_t total = 0;
  for (const auto count : b) {
    total += count;
  }
  EXPECT_EQ(total, 1u);
}

INSTANTIATE_TEST_SUITE_P(Powers, HistogramBucketTest,
                         ::testing::Values(0, 1, 2, 3, 4, 7, 8, 9, 1023,
                                           1024, 1025, 1u << 20));

}  // namespace
}  // namespace sv::sim
