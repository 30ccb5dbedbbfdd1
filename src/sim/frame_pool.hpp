// FramePool: a freelist allocator for coroutine frames.
//
// Every simulated sequential process is a C++20 coroutine, and every call
// to one (Ctrl::tx_launch, Bus::access, Link::send, delay-wrapped helpers,
// ...) allocates a frame with ::operator new and frees it at completion.
// In steady state that is several malloc/free pairs per simulated message
// — the second-largest kernel-path overhead after std::function events
// (DESIGN.md §11).
//
// Frames recycle through per-thread, per-size-class freelists instead.
// Blocks carry a 16-byte header holding their size class, so deallocation
// needs no size plumbing; classes are 64-byte granules up to 2 KiB (real
// frame sizes here are ~100-600 bytes), larger requests pass through to
// the global heap. A freed block always pushes onto the *freeing* thread's
// list, uncapped: a 1024-node machine keeps thousands of transient frames
// of one class live per epoch, and a cap sends the excess through malloc
// every time. The lists stay bounded because domain placement is fixed —
// domain d always runs on executor d % threads — so a thread's list never
// holds more than that thread's peak number of live frames.
//
// New blocks are cut from 64 KiB slabs of one class, so the frames a run
// keeps hot sit on few pages. Blocks from malloc scatter across the whole
// heap, and a 1024-node run with them kept most of its malloc cost
// (DESIGN.md §11.3). Slabs are shared by the process and never freed: one
// slab's blocks serve every thread, and a frame may outlive the thread
// that allocated it. When a thread exits, its lists go to the
// process-wide lists, and the next thread to run short (the next
// machine's helpers) takes them from there: no pooled block is stranded.
// AddressSanitizer builds give every block its own ::operator new instead:
// a slab keeps LeakSanitizer from reporting a leaked frame while any
// other block of its slab is reachable, and hides the redzones between
// frames.
//
// Reuse is invisible to simulation semantics (frames carry no identity),
// so determinism and bit-identical parallel equivalence are unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>

namespace sv::sim {

class FramePool {
 public:
  static constexpr std::size_t kHeader = 16;  // keeps 16-byte alignment
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 32;  // up to 2 KiB blocks

  static void* allocate(std::size_t bytes) {
    const std::size_t need = bytes + kHeader;
    const std::size_t cls = (need + kGranule - 1) / kGranule;
    if (cls < kClasses) {
      void*& head = heads()[cls];
      if (head == nullptr) {
        head = refill(cls);
      }
      void* raw = head;
      head = *static_cast<void**>(raw);
      // The freelist link overwrote the header word; restore the class.
      *static_cast<std::uint64_t*>(raw) = cls;
      return static_cast<char*>(raw) + kHeader;
    }
    void* raw = ::operator new(need);
    *static_cast<std::uint64_t*>(raw) = 0;  // pass-through marker
    return static_cast<char*>(raw) + kHeader;
  }

  static void deallocate(void* p) noexcept {
    if (p == nullptr) {
      return;
    }
    void* raw = static_cast<char*>(p) - kHeader;
    const std::uint64_t cls = *static_cast<std::uint64_t*>(raw);
    if (cls == 0) {
      ::operator delete(raw);
      return;
    }
    void*& head = heads()[cls];
    *static_cast<void**>(raw) = head;
    head = raw;
  }

 private:
  // Cut new blocks from slabs, except under AddressSanitizer (see above).
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kSlabs = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  static constexpr bool kSlabs = false;
#else
  static constexpr bool kSlabs = true;
#endif
#else
  static constexpr bool kSlabs = true;
#endif

  /// Blocks shared by every thread: the lists of threads that exited, and
  /// the slab each class is being cut from. One lock; threads come here
  /// only when their own list of a class runs dry.
  class Shared {
   public:
    /// A list of kBatch blocks of class `cls`: blocks exited threads
    /// left first, then new blocks (cut from the class's slab in address
    /// order). A batch, not the whole list, so that no thread hoards what
    /// the other threads of its machine need.
    void* take(std::size_t cls) {
      const std::lock_guard<std::mutex> lock(mu_);
      const std::size_t size = cls * kGranule;
      void* list = nullptr;
      void** link = &list;
      for (int i = 0; i < kBatch; ++i) {
        void* raw = free_[cls];
        if (raw != nullptr) {
          free_[cls] = *static_cast<void**>(raw);
        } else if (!kSlabs) {
          raw = ::operator new(size);
        } else {
          if (static_cast<std::size_t>(end_[cls] - next_[cls]) < size) {
            next_[cls] = static_cast<char*>(::operator new(kSlabBytes));
            end_[cls] = next_[cls] + kSlabBytes;
          }
          raw = next_[cls];
          next_[cls] += size;
        }
        *link = raw;
        link = static_cast<void**>(raw);
      }
      *link = nullptr;
      return list;
    }

    /// Take over an exiting thread's lists.
    void adopt(void** head) {
      const std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t cls = 0; cls < kClasses; ++cls) {
        if (head[cls] == nullptr) {
          continue;
        }
        void* tail = head[cls];
        while (*static_cast<void**>(tail) != nullptr) {
          tail = *static_cast<void**>(tail);
        }
        *static_cast<void**>(tail) = free_[cls];
        free_[cls] = head[cls];
        head[cls] = nullptr;
      }
    }

   private:
    static constexpr std::size_t kSlabBytes = 64 * 1024;
    static constexpr int kBatch = 32;  // blocks per refill

    std::mutex mu_;
    void* free_[kClasses] = {};
    char* next_[kClasses] = {};
    char* end_[kClasses] = {};
  };

  /// Hands the thread's lists to Shared when the thread exits.
  struct HandOff {
    HandOff() = default;
    HandOff(const HandOff&) = delete;
    HandOff& operator=(const HandOff&) = delete;
    ~HandOff() { shared().adopt(heads()); }
  };

  /// One thread's freelists, one per size class. Trivially destructible,
  /// so the hot path needs no initialization guard and a frame freed
  /// after the hand-off (during static destruction, say) still lands in
  /// valid storage.
  static void** heads() {
    thread_local void* t_head[kClasses] = {};
    return t_head;
  }

  /// The slow path: a thread's first refill also registers its hand-off.
  static void* refill(std::size_t cls) {
    thread_local HandOff t_hand_off;
    return shared().take(cls);
  }

  /// Never destroyed: frames are freed during static destruction too.
  static Shared& shared() {
    static Shared* const s = new Shared;
    return *s;
  }
};

}  // namespace sv::sim
