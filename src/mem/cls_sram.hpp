// clsSRAM: the single-ported SRAM holding 4 state bits per main-memory cache
// line. The aBIU reads it combinationally for every aP bus operation (the
// read is part of the snoop path and costs no extra time); updates go
// through its single port.
//
// The 4-bit value is protocol-defined: the S-COMA firmware uses it as
// cache-line state, and the aBIU's reaction table maps (bus op, cls bits) to
// {retry, pass-to-sP} decisions.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/bus.hpp"
#include "sim/coro.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"

namespace sv::ckpt {
class Writer;
}  // namespace sv::ckpt

namespace sv::mem {

class ClsSram : public sim::SimObject {
 public:
  /// Port time per line written, in cycles of kBusClock.
  static constexpr sim::Cycles kWriteCycles = 1;

  struct Params {
    Addr region_base = 0;   // first address covered
    Addr region_size = 0;   // bytes covered (state kept per kLineBytes line)
  };

  ClsSram(sim::Kernel& kernel, std::string name, Params params);

  [[nodiscard]] bool covers(Addr a) const {
    return a >= params_.region_base &&
           a < params_.region_base + params_.region_size;
  }

  /// Combinational read used on the snoop path (no simulated time).
  [[nodiscard]] std::uint8_t peek(Addr a) const;

  /// Functional write (used by tests and for initialization).
  void poke(Addr a, std::uint8_t bits);

  /// Install the power-on value of every line as a pure function of its
  /// address, discarding any prior pokes. This is how firmware "writes the
  /// whole SRAM" in O(1): storage stays empty and only lines later poked
  /// to a different value materialize (per 4KB chunk). The function must
  /// stay valid for the SRAM's lifetime and return 4-bit values —
  /// value-capture what it needs.
  void set_default(std::function<std::uint8_t(Addr)> fn);

  /// Chunks whose backing bytes exist (pokes materialize chunks on first
  /// divergence from the default). Scale memory tests pin idle cost here.
  [[nodiscard]] std::size_t chunks_materialized() const {
    std::size_t n = 0;
    for (const auto& c : chunks_) {
      n += c ? 1 : 0;
    }
    return n;
  }

  /// Timed write through the single port (used by aBIU/CTRL commands).
  sim::Co<void> write_state(Addr a, std::uint8_t bits);

  /// Timed write of a contiguous range of lines.
  sim::Co<void> write_state_range(Addr base, Addr size, std::uint8_t bits);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const sim::Counter& writes() const { return writes_; }

  /// Snapshot state: write count, then the count of materialized chunks
  /// and a CRC-32 over (chunk index, chunk bytes) of each, in index order
  /// (the coherence-protocol ground truth for the S-COMA window). Virtual
  /// chunks cost nothing: they read as the default function.
  void ckpt_save(ckpt::Writer& w) const;

 private:
  /// Lines per materialized chunk (4KB of state bytes).
  static constexpr std::size_t kChunkLines = 4096;
  using Chunk = std::array<std::uint8_t, kChunkLines>;

  [[nodiscard]] std::size_t index_of(Addr a) const;
  [[nodiscard]] std::uint8_t default_of(std::size_t line) const {
    return default_fn_
               ? static_cast<std::uint8_t>(
                     default_fn_(params_.region_base +
                                 static_cast<Addr>(line) * kLineBytes) &
                     0x0F)
               : 0;
  }
  /// Allocate chunk c and fill it with each line's default value.
  Chunk& materialize_chunk(std::size_t c);

  Params params_;
  std::size_t lines_;  // region_size / kLineBytes
  /// Sparse state: chunks_[i] covers lines [i*kChunkLines, ...); a null
  /// chunk reads as the default function applied per line.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::function<std::uint8_t(Addr)> default_fn_;
  sim::Semaphore port_;
  sim::Counter writes_;
};

}  // namespace sv::mem
