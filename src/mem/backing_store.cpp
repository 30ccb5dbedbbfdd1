#include "mem/backing_store.hpp"

#include <algorithm>
#include <cstring>

#include "ckpt/io.hpp"
#include "sim/crc32.hpp"

namespace sv::mem {

const BackingStore::Page* BackingStore::find_page(Addr page_index) const {
  if (page_index == last_index_ && last_page_ != nullptr) {
    return last_page_;
  }
  auto it = pages_.find(page_index);
  if (it == pages_.end()) {
    return nullptr;  // absent pages stay uncached: a write may create one
  }
  last_index_ = page_index;
  last_page_ = it->second.get();
  return last_page_;
}

std::byte* BackingStore::writable_page(Addr page_index) {
  if (page_index == last_index_ && last_page_ != nullptr &&
      !last_page_->shared) {
    return last_page_->bytes.data();
  }
  std::shared_ptr<Page>& page = pages_[page_index];
  if (page == nullptr) {
    page = std::make_shared<Page>();
  } else if (page->shared) {
    // Copy on write, whoever else still holds the page: its bytes are
    // immutable, and a reference count read here would race with other
    // holders running on other threads.
    auto own = std::make_shared<Page>();
    own->bytes = page->bytes;
    page = std::move(own);
  }
  last_index_ = page_index;
  last_page_ = page.get();
  return page->bytes.data();
}

void BackingStore::read(Addr addr, std::span<std::byte> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr a = addr + done;
    const Addr page_index = a / kPageBytes;
    const std::size_t offset = a % kPageBytes;
    const std::size_t chunk =
        std::min(out.size() - done, kPageBytes - offset);
    if (const Page* page = find_page(page_index)) {
      std::memcpy(out.data() + done, page->bytes.data() + offset, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
}

void BackingStore::write(Addr addr, std::span<const std::byte> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const Addr a = addr + done;
    const Addr page_index = a / kPageBytes;
    const std::size_t offset = a % kPageBytes;
    const std::size_t chunk = std::min(in.size() - done, kPageBytes - offset);
    std::memcpy(writable_page(page_index) + offset, in.data() + done, chunk);
    done += chunk;
  }
}

void BackingStore::fill(Addr addr, std::size_t len, std::byte value) {
  std::size_t done = 0;
  while (done < len) {
    const Addr a = addr + done;
    const Addr page_index = a / kPageBytes;
    const std::size_t offset = a % kPageBytes;
    const std::size_t chunk = std::min(len - done, kPageBytes - offset);
    std::memset(writable_page(page_index) + offset, static_cast<int>(value),
                chunk);
    done += chunk;
  }
}

void BackingStore::adopt(const BackingStore& src, Addr addr,
                         std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const Addr a = addr + done;
    const Addr page_index = a / kPageBytes;
    const std::size_t offset = a % kPageBytes;
    const std::size_t chunk = std::min(len - done, kPageBytes - offset);
    const auto it = src.pages_.find(page_index);
    if (chunk == kPageBytes && it != src.pages_.end()) {
      it->second->shared = true;
      pages_[page_index] = it->second;
      if (last_index_ == page_index) {
        last_page_ = it->second.get();
      }
    } else {
      src.read(a, {writable_page(page_index) + offset, chunk});
    }
    done += chunk;
  }
}

void BackingStore::ckpt_save(ckpt::Writer& w) const {
  std::vector<Addr> indices;
  indices.reserve(pages_.size());
  for (const auto& [index, page] : pages_) {
    (void)page;
    indices.push_back(index);
  }
  std::sort(indices.begin(), indices.end());
  std::uint32_t crc = 0;
  for (const Addr index : indices) {
    crc = sim::crc32(std::as_bytes(std::span(&index, 1)), crc);
    crc = sim::crc32(pages_.at(index)->bytes, crc);
  }
  w.u64(indices.size());
  w.u32(crc);
}

}  // namespace sv::mem
