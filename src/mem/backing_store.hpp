// Sparse functional byte storage backing DRAM and SRAM models.
//
// Timing lives in the bus/controller models; BackingStore is purely
// functional so every simulated data movement is real and checkable.
//
// Pages can be shared between stores: adopt() hands another store's whole
// pages to this one instead of copying them, so the 1024 nodes of a
// machine hold one copy of their common translation table. A shared page
// is immutable: whichever holder writes it first copies it into a page of
// its own, so sharing never shows in what any store reads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace sv::ckpt {
class Writer;
}  // namespace sv::ckpt

namespace sv::mem {

using Addr = std::uint64_t;

class BackingStore {
 public:
  static constexpr std::size_t kPageBytes = 4096;

  /// Read `out.size()` bytes at `addr`. Unwritten bytes read as zero.
  void read(Addr addr, std::span<std::byte> out) const;

  /// Write `in.size()` bytes at `addr`.
  void write(Addr addr, std::span<const std::byte> in);

  /// Convenience scalar accessors (little-endian in host memory).
  template <typename T>
  [[nodiscard]] T read_scalar(Addr addr) const {
    T v{};
    read(addr, std::as_writable_bytes(std::span(&v, 1)));
    return v;
  }

  template <typename T>
  void write_scalar(Addr addr, const T& v) {
    write(addr, std::as_bytes(std::span(&v, 1)));
  }

  /// Fill a range with a byte value.
  void fill(Addr addr, std::size_t len, std::byte value);

  /// Make [addr, addr + len) hold what `src` holds there, exactly as
  /// writing src's bytes would, but share every whole page of the range
  /// that `src` has instead of copying it. Partial pages at either end,
  /// and pages `src` never wrote, are written as write() would. From then
  /// on the shared pages are immutable in both stores: the first write
  /// through either copies the page.
  void adopt(const BackingStore& src, Addr addr, std::size_t len);

  [[nodiscard]] std::size_t allocated_pages() const { return pages_.size(); }

  /// Snapshot digest: page count plus a CRC-32 over (index, bytes) of every
  /// allocated page in ascending index order. The hash map's own iteration
  /// order is host-dependent, so the digest sorts first — a snapshot must
  /// be a pure function of simulated state (DESIGN.md §14). Bulk payload is
  /// digested rather than dumped raw; a single flipped byte still fails
  /// restore verification. Shared and owned pages digest alike.
  void ckpt_save(ckpt::Writer& w) const;

 private:
  struct Page {
    /// Set when a second store adopts the page, and never cleared: the
    /// bytes are then immutable (see writable_page).
    bool shared = false;
    std::array<std::byte, kPageBytes> bytes{};
  };

  [[nodiscard]] const Page* find_page(Addr page_index) const;
  /// The page's bytes, ready to write: created zeroed if absent, copied
  /// into a page this store owns if shared.
  std::byte* writable_page(Addr page_index);

  std::unordered_map<Addr, std::shared_ptr<Page>> pages_;
  // One-entry lookup cache: accesses are overwhelmingly sequential, so
  // most hash lookups repeat the previous page. Pages live on the heap and
  // only adopt() and a copy-on-write replace one, both of which refresh
  // the cache, so it never goes stale (mutable: caching inside const
  // read() is not observable). The write path rechecks the page's shared
  // flag, because another store's adopt() may set it at any time.
  mutable Addr last_index_ = ~Addr{0};
  mutable Page* last_page_ = nullptr;
};

}  // namespace sv::mem
