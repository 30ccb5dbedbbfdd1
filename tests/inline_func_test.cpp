// Unit tests for sim::InlineFunc, the fixed-capacity allocation-free
// callable the event queue stores: capture size limits, move-only
// captures, destruction counting, and the trivial-relocation fast path.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>

#include "sim/inline_func.hpp"

namespace sv::sim {
namespace {

TEST(InlineFunc, InvokesCapturedState) {
  int hits = 0;
  InlineFunc f([&hits] { ++hits; });
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunc, DefaultConstructedIsEmpty) {
  InlineFunc f;
  EXPECT_FALSE(static_cast<bool>(f));
  InlineFunc g([] {});
  EXPECT_TRUE(static_cast<bool>(g));
}

TEST(InlineFunc, CapturesUpToCapacityFit) {
  // A capture of exactly kCapacity bytes must compile and work; one byte
  // more is rejected at compile time (covered by the static_assert in the
  // converting constructor — not instantiable from a test, by design).
  struct Fat {
    char bytes[InlineFunc::kCapacity - sizeof(int*)];
    int* out;
    void operator()() const { ++*out; }
  };
  static_assert(sizeof(Fat) == InlineFunc::kCapacity);
  int hits = 0;
  InlineFunc f(Fat{{}, &hits});
  f();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunc, MoveTransfersOwnership) {
  int hits = 0;
  InlineFunc a([&hits] { ++hits; });
  InlineFunc b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineFunc c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunc, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(7);
  int got = 0;
  InlineFunc f([p = std::move(p), &got] { got = *p; });
  InlineFunc g(std::move(f));
  g();
  EXPECT_EQ(got, 7);
}

struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept : count(std::exchange(o.count, nullptr)) {}
  DtorCounter(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (count != nullptr) {
      ++*count;
    }
  }
  void operator()() const {}
};

TEST(InlineFunc, DestroysCaptureExactlyOnce) {
  int dtors = 0;
  {
    InlineFunc f(DtorCounter{&dtors});
    EXPECT_EQ(dtors, 0);
  }
  EXPECT_EQ(dtors, 1);
}

TEST(InlineFunc, MovedThroughQueueDestroysOnce) {
  // The queue relocates callables (vector growth, heap sift, bucket
  // sorts); however many times it moves, the capture dies exactly once.
  int dtors = 0;
  {
    InlineFunc a(DtorCounter{&dtors});
    InlineFunc b(std::move(a));
    InlineFunc c;
    c = std::move(b);
    EXPECT_EQ(dtors, 0);
  }
  EXPECT_EQ(dtors, 1);
}

TEST(InlineFunc, AssignOverEngagedDestroysOldCapture) {
  int old_dtors = 0;
  int new_hits = 0;
  InlineFunc f(DtorCounter{&old_dtors});
  f = InlineFunc([&new_hits] { ++new_hits; });
  EXPECT_EQ(old_dtors, 1);
  f();
  EXPECT_EQ(new_hits, 1);

  // emplace() builds the new callable in place, over an engaged one too.
  int emplaced_dtors = 0;
  f.emplace(DtorCounter{&emplaced_dtors});
  EXPECT_EQ(emplaced_dtors, 0);
  f.emplace([&new_hits] { ++new_hits; });
  EXPECT_EQ(emplaced_dtors, 1);
  f();
  EXPECT_EQ(new_hits, 2);
}

TEST(InlineFunc, TrivialCaptureRelocatesWithoutManager) {
  // Trivially copyable + destructible captures relocate by memcpy; the
  // observable contract is just that state survives moves intact.
  struct Plain {
    int a;
    int b;
    int* out;
    void operator()() const { *out = a + b; }
  };
  static_assert(std::is_trivially_copyable_v<Plain>);
  int result = 0;
  InlineFunc f(Plain{20, 22, &result});
  InlineFunc g(std::move(f));
  InlineFunc h;
  h = std::move(g);
  h();
  EXPECT_EQ(result, 42);
}

TEST(InlineFunc, SizeIsOneCacheLine) {
  static_assert(sizeof(InlineFunc) == 64);
  static_assert(alignof(InlineFunc) >= alignof(std::max_align_t));
}

}  // namespace
}  // namespace sv::sim
