#include "ckpt/snapshot.hpp"

#include <cstdio>
#include <fstream>

#include "sim/crc32.hpp"

namespace sv::ckpt {

const std::vector<std::byte>* Snapshot::find(const std::string& name) const {
  for (const auto& [n, bytes] : chunks_) {
    if (n == name) {
      return &bytes;
    }
  }
  return nullptr;
}

std::vector<std::byte> Snapshot::serialize() const {
  Writer payload;
  payload.str(config);
  payload.u64(tick);
  payload.u64(chunks_.size());
  for (const auto& [name, bytes] : chunks_) {
    payload.str(name);
    payload.bytes(bytes);
  }
  Writer out;
  out.u32(kMagic);
  out.u32(kVersion);
  std::vector<std::byte> data = out.data();
  data.insert(data.end(), payload.data().begin(), payload.data().end());
  const std::uint32_t crc = sim::crc32(payload.data());
  for (std::size_t i = 0; i < 4; ++i) {
    data.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  return data;
}

Snapshot Snapshot::parse(std::span<const std::byte> data) {
  Reader hdr(data);
  if (hdr.u32() != kMagic) {
    throw Error("snapshot rejected: bad magic (not an SVCK snapshot file)");
  }
  const std::uint32_t version = hdr.u32();
  if (version != kVersion) {
    throw Error("snapshot rejected: version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kVersion) +
                ")");
  }
  if (hdr.remaining() < 4) {
    throw Error("snapshot truncated: missing CRC trailer");
  }
  const std::span<const std::byte> payload =
      data.subspan(8, data.size() - 12);
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(data[data.size() - 4 + i]))
              << (8 * i);
  }
  const std::uint32_t computed = sim::crc32(payload);
  if (stored != computed) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "stored %08x, computed %08x", stored,
                  computed);
    throw Error(std::string("snapshot rejected: payload CRC mismatch (") +
                buf + ")");
  }
  Snapshot s;
  Reader r(payload);
  s.config = r.str();
  s.tick = r.u64();
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = r.str();
    s.chunks_.emplace_back(std::move(name), r.bytes());
  }
  if (!r.done()) {
    throw Error("snapshot corrupt: " + std::to_string(r.remaining()) +
                " trailing bytes after last chunk");
  }
  return s;
}

void Snapshot::verify(const Snapshot& expected, const Snapshot& actual) {
  if (expected.tick != actual.tick) {
    throw Error("restore diverged: snapshot tick " +
                std::to_string(expected.tick) + " vs replayed tick " +
                std::to_string(actual.tick));
  }
  if (expected.config != actual.config) {
    throw Error("restore diverged: configuration text differs");
  }
  const std::size_t n =
      std::min(expected.chunks_.size(), actual.chunks_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [en, eb] = expected.chunks_[i];
    const auto& [an, ab] = actual.chunks_[i];
    if (en != an) {
      throw Error("restore diverged: chunk " + std::to_string(i) +
                  " named '" + en + "' in snapshot but '" + an +
                  "' after replay");
    }
    const std::size_t m = std::min(eb.size(), ab.size());
    for (std::size_t off = 0; off < m; ++off) {
      if (eb[off] != ab[off]) {
        throw Error("restore diverged: chunk '" + en + "' byte " +
                    std::to_string(off) + ": snapshot " +
                    std::to_string(static_cast<unsigned>(eb[off])) +
                    " vs replay " +
                    std::to_string(static_cast<unsigned>(ab[off])));
      }
    }
    if (eb.size() != ab.size()) {
      throw Error("restore diverged: chunk '" + en + "' is " +
                  std::to_string(eb.size()) + " bytes in snapshot, " +
                  std::to_string(ab.size()) + " after replay");
    }
  }
  if (expected.chunks_.size() != actual.chunks_.size()) {
    throw Error("restore diverged: snapshot has " +
                std::to_string(expected.chunks_.size()) + " chunks, replay " +
                std::to_string(actual.chunks_.size()));
  }
}

void Snapshot::save_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    throw Error("cannot open snapshot file for writing: " + path);
  }
  const std::vector<std::byte> data = serialize();
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) {
    throw Error("short write to snapshot file: " + path);
  }
}

Snapshot Snapshot::load_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw Error("cannot open snapshot file: " + path);
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  return parse(std::as_bytes(std::span(raw.data(), raw.size())));
}

}  // namespace sv::ckpt
