// InlineFunc: a fixed-size, allocation-free callable for the event hot path.
//
// Every event the kernel dispatches used to be a std::function<void()>.
// libstdc++'s std::function only stores captures up to 16 bytes inline;
// anything larger — a coroutine handle plus a couple of fields, a pool
// handle with bookkeeping — costs one heap allocation and one free per
// scheduled event. At tens of millions of events per second that malloc
// traffic is the single largest kernel overhead (see DESIGN.md §11).
//
// BasicInlineFunc<Capacity> stores the callable in a Capacity-byte inline
// buffer, full stop: there is no heap fallback. A capture that does not
// fit is a compile error, which turns "audit every scheduling site" into
// something the compiler enforces. Events are InlineFunc (48 bytes); sites
// that want to move bulky state (a net::Packet) through an event capture
// a pool handle instead (net::PacketPool). Cross-domain mail is
// Kernel::Mail (128 bytes), which holds a whole Packet by value.
//
// Move-only, like the events it carries (captures may own resources).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sv::sim {

template <std::size_t Capacity>
class BasicInlineFunc {
 public:
  /// Inline capture capacity; sizeof is kCapacity plus two pointers. The
  /// static_assert in construct() flags any capture that outgrows it.
  static constexpr std::size_t kCapacity = Capacity;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  BasicInlineFunc() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, BasicInlineFunc> &&
                                        std::is_invocable_r_v<void, D&>>>
  BasicInlineFunc(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  /// Replace the held callable with `f`, built directly in this buffer.
  /// The event queue builds each callback in its slab slot this way
  /// instead of relocating a temporary InlineFunc into it (DESIGN.md
  /// §11.2). A BasicInlineFunc argument of the same capacity is moved in.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, BasicInlineFunc>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      construct<D>(std::forward<F>(f));
    }
  }

  BasicInlineFunc(BasicInlineFunc&& o) noexcept
      : invoke_(o.invoke_), manage_(o.manage_) {
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        manage_(storage_, o.storage_);
      } else {
        std::memcpy(storage_, o.storage_, kCapacity);
      }
      o.invoke_ = nullptr;
      o.manage_ = nullptr;
    }
  }

  BasicInlineFunc& operator=(BasicInlineFunc&& o) noexcept {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      if (invoke_ != nullptr) {
        if (manage_ != nullptr) {
          manage_(storage_, o.storage_);
        } else {
          std::memcpy(storage_, o.storage_, kCapacity);
        }
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
      }
    }
    return *this;
  }

  BasicInlineFunc(const BasicInlineFunc&) = delete;
  BasicInlineFunc& operator=(const BasicInlineFunc&) = delete;

  ~BasicInlineFunc() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

 private:
  template <typename D, typename F>
  void construct(F&& f) {
    static_assert(sizeof(D) <= kCapacity,
                  "InlineFunc: capture too large for the inline buffer — "
                  "shrink the capture or move the state through a pool "
                  "handle (see net::PacketPool)");
    static_assert(alignof(D) <= kAlign,
                  "InlineFunc: capture over-aligned for the inline buffer");
    static_assert(std::is_move_constructible_v<D>,
                  "InlineFunc: capture must be move-constructible");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = [](void* s) { (*static_cast<D*>(s))(); };
    // Most captures are a few pointers and integers: trivially copyable,
    // trivially destructible. Those keep manage_ == nullptr and relocate
    // by plain memcpy with nothing to destroy — no indirect call when
    // the event queue moves a callback out of its slab.
    if constexpr (!(std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>)) {
      manage_ = [](void* dst, void* src) {
        if (src != nullptr) {  // relocate: move-construct dst, destroy src
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        } else {  // destroy dst
          static_cast<D*>(dst)->~D();
        }
      };
    }
  }

  void reset() {
    if (manage_ != nullptr) {
      manage_(storage_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  using Invoke = void (*)(void*);
  using Manage = void (*)(void* dst, void* src);

  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  alignas(kAlign) unsigned char storage_[kCapacity];
};

/// The event callback: two function pointers and 48 bytes of capture,
/// one cache line per callable.
using InlineFunc = BasicInlineFunc<48>;
static_assert(sizeof(InlineFunc) == 64, "one cache line per callable");

}  // namespace sv::sim
