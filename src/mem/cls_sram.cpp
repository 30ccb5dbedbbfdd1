#include "mem/cls_sram.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "ckpt/io.hpp"
#include "sim/crc32.hpp"

namespace sv::mem {

ClsSram::ClsSram(sim::Kernel& kernel, std::string name, Params params)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      lines_(params.region_size / kLineBytes),
      chunks_((lines_ + kChunkLines - 1) / kChunkLines),
      port_(kernel, 1) {}

std::size_t ClsSram::index_of(Addr a) const {
  if (!covers(a)) {
    throw std::out_of_range(name() + ": address outside clsSRAM region");
  }
  return static_cast<std::size_t>((a - params_.region_base) / kLineBytes);
}

ClsSram::Chunk& ClsSram::materialize_chunk(std::size_t c) {
  if (!chunks_[c]) {
    chunks_[c] = std::make_unique<Chunk>();
    const std::size_t base = c * kChunkLines;
    const std::size_t n = std::min(kChunkLines, lines_ - base);
    for (std::size_t i = 0; i < n; ++i) {
      (*chunks_[c])[i] = default_of(base + i);
    }
  }
  return *chunks_[c];
}

void ClsSram::set_default(std::function<std::uint8_t(Addr)> fn) {
  default_fn_ = std::move(fn);
  for (auto& c : chunks_) {
    c.reset();
  }
}

std::uint8_t ClsSram::peek(Addr a) const {
  const std::size_t line = index_of(a);
  const auto& chunk = chunks_[line / kChunkLines];
  return chunk ? (*chunk)[line % kChunkLines] : default_of(line);
}

void ClsSram::poke(Addr a, std::uint8_t bits) {
  const std::size_t line = index_of(a);
  bits &= 0x0F;
  if (!chunks_[line / kChunkLines] && bits == default_of(line)) {
    return;  // already reads back as `bits`: keep the chunk virtual
  }
  materialize_chunk(line / kChunkLines)[line % kChunkLines] = bits;
}

sim::Co<void> ClsSram::write_state(Addr a, std::uint8_t bits) {
  co_await port_.acquire();
  co_await sim::delay(kernel_, params_.clock.to_ticks(params_.write_cycles));
  poke(a, bits);
  writes_.inc();
  port_.release();
}

sim::Co<void> ClsSram::write_state_range(Addr base, Addr size,
                                         std::uint8_t bits) {
  co_await port_.acquire();
  const Addr first = line_base(base);
  const Addr last = line_base(base + size - 1);
  const sim::Cycles lines =
      static_cast<sim::Cycles>((last - first) / kLineBytes + 1);
  co_await sim::delay(kernel_,
                      params_.clock.to_ticks(lines * params_.write_cycles));
  for (Addr a = first; a <= last; a += kLineBytes) {
    poke(a, bits);
  }
  writes_.inc(lines);
  port_.release();
}

void ClsSram::ckpt_save(ckpt::Writer& w) const {
  w.u64(writes_.value());
  w.u64(lines_);
  // Digest the materialized chunks by index, as BackingStore does its
  // pages. A virtual chunk reads as the default function, which the same
  // config installs again, so any line that diverges from it is in a
  // chunk digested here.
  std::uint64_t count = 0;
  std::uint32_t crc = 0;
  for (std::uint64_t c = 0; c < chunks_.size(); ++c) {
    if (chunks_[c]) {
      const std::size_t n = std::min(kChunkLines, lines_ - c * kChunkLines);
      crc = sim::crc32(std::as_bytes(std::span(&c, 1)), crc);
      crc = sim::crc32(std::as_bytes(std::span(chunks_[c]->data(), n)), crc);
      ++count;
    }
  }
  w.u64(count);
  w.u32(crc);
}

}  // namespace sv::mem
