// The versioned machine-snapshot container (DESIGN.md §14).
//
// A Snapshot is a bag of named chunks — one per component, produced by its
// ckpt_save() — plus the capture tick and the complete configuration text
// needed to rebuild the run. Events in this simulator are arbitrary
// closures and cannot be serialized, so restore works by deterministic
// re-execution: rebuild the machine from the embedded config, replay to
// the capture tick, re-capture, and byte-compare every chunk against the
// file. A snapshot is therefore simultaneously a resume point and a
// machine-checked bit-identity oracle over the whole architectural state.
//
// On-disk layout (all integers little-endian):
//   magic   u32  'SVCK'
//   version u32  kVersion
//   payload:
//     config str   (the run's configuration, ckpt/scenario.hpp's format)
//     tick   u64   (capture time; an epoch boundary)
//     count  u64
//     count x { name str, chunk bytes }
//   crc     u32  CRC-32 of the payload
// Any structural problem — bad magic, unknown version, CRC mismatch,
// truncation — raises ckpt::Error; a Reader bounds-checks every access so
// corrupt input is rejected, never undefined behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/io.hpp"

namespace sv::ckpt {

class Snapshot {
 public:
  static constexpr std::uint32_t kMagic = 0x4B435653;  // "SVCK" little-endian
  /// Version 4: a kernel chunk no longer holds the host's executed-event
  /// count (version 3 digested clsSRAM by materialized chunk and gave a
  /// `reliable` run's channels chunks of their own).
  static constexpr std::uint32_t kVersion = 4;

  std::string config;  // the run's configuration (ckpt/scenario.hpp)
  std::uint64_t tick = 0;

  /// Add one component chunk. Names must be unique and appended in a
  /// canonical order (the capture walk's machine order).
  void add_chunk(std::string name, const Writer& w) {
    chunks_.emplace_back(std::move(name), w.data());
  }

  [[nodiscard]] const std::vector<
      std::pair<std::string, std::vector<std::byte>>>&
  chunks() const {
    return chunks_;
  }

  [[nodiscard]] const std::vector<std::byte>* find(
      const std::string& name) const;

  /// Serialize to the on-disk byte layout (header + payload + CRC).
  [[nodiscard]] std::vector<std::byte> serialize() const;

  /// Parse serialized bytes; throws ckpt::Error on any structural problem.
  static Snapshot parse(std::span<const std::byte> data);

  /// Byte-compare every chunk of `expected` (the file) against `actual`
  /// (the re-captured state after replay). Throws ckpt::Error naming the
  /// first diverging chunk and byte offset, or the first missing/extra
  /// chunk. Config and tick must match too.
  static void verify(const Snapshot& expected, const Snapshot& actual);

  void save_file(const std::string& path) const;
  static Snapshot load_file(const std::string& path);

 private:
  std::vector<std::pair<std::string, std::vector<std::byte>>> chunks_;
};

}  // namespace sv::ckpt
