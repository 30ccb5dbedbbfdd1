// Snapshot container properties (DESIGN.md §14): serialization is a pure
// function of content (save → parse → save is byte-identical), and every
// structurally damaged input — bad magic, unknown version, CRC mismatch,
// truncation at *every* byte length, trailing garbage, overflow-crafted
// container lengths — is rejected with ckpt::Error, never undefined
// behaviour. CI runs this suite under ASan/UBSan, which is what turns
// "rejected cleanly" from a claim into a checked property.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/io.hpp"
#include "ckpt/snapshot.hpp"

namespace sv {
namespace {

ckpt::Snapshot make_snapshot() {
  ckpt::Snapshot s;
  s.config = "workload=msg\nnodes=4\nthreads=2\n";
  s.tick = 123456789;
  ckpt::Writer a;
  a.u64(42);
  a.u32(7);
  a.b(true);
  s.add_chunk("n0.kernel", a);
  ckpt::Writer b;
  b.str("hello");
  b.f64(2.5);
  s.add_chunk("net", b);
  ckpt::Writer c;  // empty chunks are legal
  s.add_chunk("fault", c);
  return s;
}

TEST(CkptPropertyTest, WriterReaderRoundTrip) {
  ckpt::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.b(true);
  w.b(false);
  w.tick(987654321);
  w.f64(-1.5e300);
  w.str("snapshot");
  const std::vector<std::byte> blob{std::byte{1}, std::byte{2},
                                    std::byte{3}};
  w.bytes(blob);

  ckpt::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.tick(), 987654321u);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_EQ(r.str(), "snapshot");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.done());
}

TEST(CkptPropertyTest, ReaderRejectsOverruns) {
  ckpt::Writer w;
  w.u32(5);
  ckpt::Reader r(w.data());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), ckpt::Error);

  // A length word larger than the remaining bytes must be rejected
  // before any allocation sized by it.
  ckpt::Writer crafted;
  crafted.u64(~0ull);
  ckpt::Reader r2(crafted.data());
  EXPECT_THROW((void)r2.bytes(), ckpt::Error);
  ckpt::Reader r3(crafted.data());
  EXPECT_THROW((void)r3.str(), ckpt::Error);
}

TEST(CkptPropertyTest, SerializeParseSerializeIsByteIdentical) {
  const ckpt::Snapshot s = make_snapshot();
  const std::vector<std::byte> first = s.serialize();
  const ckpt::Snapshot parsed = ckpt::Snapshot::parse(first);
  EXPECT_EQ(parsed.config, s.config);
  EXPECT_EQ(parsed.tick, s.tick);
  ASSERT_EQ(parsed.chunks().size(), s.chunks().size());
  for (std::size_t i = 0; i < s.chunks().size(); ++i) {
    EXPECT_EQ(parsed.chunks()[i], s.chunks()[i]) << "chunk " << i;
  }
  EXPECT_EQ(parsed.serialize(), first);
}

TEST(CkptPropertyTest, FindLocatesChunksByName) {
  const ckpt::Snapshot s = make_snapshot();
  ASSERT_NE(s.find("net"), nullptr);
  EXPECT_EQ(s.find("net")->size(), s.chunks()[1].second.size());
  EXPECT_NE(s.find("fault"), nullptr);
  EXPECT_EQ(s.find("nonexistent"), nullptr);
}

TEST(CkptPropertyTest, RejectsBadMagic) {
  std::vector<std::byte> data = make_snapshot().serialize();
  data[0] = static_cast<std::byte>('X');
  EXPECT_THROW((void)ckpt::Snapshot::parse(data), ckpt::Error);
}

TEST(CkptPropertyTest, RejectsUnknownVersion) {
  std::vector<std::byte> data = make_snapshot().serialize();
  data[4] = static_cast<std::byte>(ckpt::Snapshot::kVersion + 1);
  EXPECT_THROW((void)ckpt::Snapshot::parse(data), ckpt::Error);

  // Files of earlier formats are refused with one line, not misread.
  data[4] = static_cast<std::byte>(2);
  try {
    (void)ckpt::Snapshot::parse(data);
    ADD_FAILURE() << "a version-2 snapshot parsed";
  } catch (const ckpt::Error& e) {
    EXPECT_STREQ(e.what(), "snapshot rejected: version 2 (this build reads "
                           "version 4)");
  }
  data[4] = static_cast<std::byte>(3);
  try {
    (void)ckpt::Snapshot::parse(data);
    ADD_FAILURE() << "a version-3 snapshot parsed";
  } catch (const ckpt::Error& e) {
    EXPECT_STREQ(e.what(), "snapshot rejected: version 3 (this build reads "
                           "version 4)");
  }
}

TEST(CkptPropertyTest, RejectsCorruptedPayload) {
  // Flip every payload byte in turn: each single-byte corruption must be
  // caught (by the CRC, or — for the CRC trailer itself — by the
  // recomputed-vs-stored comparison).
  const std::vector<std::byte> good = make_snapshot().serialize();
  for (std::size_t i = 8; i < good.size(); ++i) {
    std::vector<std::byte> bad = good;
    bad[i] ^= std::byte{0x01};
    EXPECT_THROW((void)ckpt::Snapshot::parse(bad), ckpt::Error)
        << "flipped byte " << i << " was not rejected";
  }
}

TEST(CkptPropertyTest, RejectsEveryTruncation) {
  const std::vector<std::byte> good = make_snapshot().serialize();
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)ckpt::Snapshot::parse(
                     std::span(good.data(), len)),
                 ckpt::Error)
        << "prefix of " << len << " bytes was not rejected";
  }
  // The untruncated original still parses.
  EXPECT_NO_THROW((void)ckpt::Snapshot::parse(good));
}

TEST(CkptPropertyTest, RejectsTrailingBytes) {
  // Appended bytes shift the CRC trailer, so the parse must fail — a
  // snapshot is exactly its serialized bytes, nothing more.
  std::vector<std::byte> data = make_snapshot().serialize();
  data.push_back(std::byte{0});
  EXPECT_THROW((void)ckpt::Snapshot::parse(data), ckpt::Error);
}

TEST(CkptPropertyTest, SaveLoadFileRoundTrip) {
  const ckpt::Snapshot s = make_snapshot();
  const std::string path = ::testing::TempDir() + "ckpt_property.svck";
  s.save_file(path);
  const ckpt::Snapshot loaded = ckpt::Snapshot::load_file(path);
  EXPECT_EQ(loaded.serialize(), s.serialize());
}

TEST(CkptPropertyTest, LoadRejectsMissingFile) {
  EXPECT_THROW(
      (void)ckpt::Snapshot::load_file("/nonexistent/dir/nope.svck"),
      ckpt::Error);
}

TEST(CkptPropertyTest, VerifyAcceptsIdenticalAndNamesFirstDivergence) {
  const ckpt::Snapshot a = make_snapshot();
  const ckpt::Snapshot b = make_snapshot();
  EXPECT_NO_THROW(ckpt::Snapshot::verify(a, b));

  // Diverging tick.
  ckpt::Snapshot c = make_snapshot();
  c.tick += 1;
  EXPECT_THROW(ckpt::Snapshot::verify(a, c), ckpt::Error);

  // Diverging config.
  ckpt::Snapshot d = make_snapshot();
  d.config += "extra=1\n";
  EXPECT_THROW(ckpt::Snapshot::verify(a, d), ckpt::Error);

  // Diverging chunk byte: the error names the chunk and the offset.
  ckpt::Snapshot e;
  e.config = a.config;
  e.tick = a.tick;
  ckpt::Writer w;
  w.u64(43);  // first chunk's first field differs
  w.u32(7);
  w.b(true);
  e.add_chunk("n0.kernel", w);
  try {
    ckpt::Snapshot::verify(a, e);
    FAIL() << "divergence not detected";
  } catch (const ckpt::Error& err) {
    EXPECT_NE(std::string(err.what()).find("n0.kernel"), std::string::npos)
        << err.what();
  }

  // Missing chunks.
  ckpt::Snapshot f;
  f.config = a.config;
  f.tick = a.tick;
  EXPECT_THROW(ckpt::Snapshot::verify(a, f), ckpt::Error);
}

}  // namespace
}  // namespace sv
