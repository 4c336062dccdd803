// miras::persist: binary encoding primitives, the checkpoint container,
// and — critically — the corruption paths. A damaged checkpoint must fail
// with a distinct, descriptive error; it must never restore partially or
// read out of bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "persist/crc32.h"

namespace miras::persist {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "miras_persist_" + name;
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Expects `fn` to throw std::runtime_error whose message contains `needle`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::runtime_error containing '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(BinaryIo, RoundtripsEveryType) {
  BinaryWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i64(-42);
  out.f64(-1.5e-300);
  out.boolean(true);
  out.boolean(false);
  out.str("hello checkpoint");
  out.vec_f64({1.0, -2.5, 3.25});
  out.vec_u64({7, 8});
  out.vec_i32({-1, 0, 1000000});

  BinaryReader in(out.bytes().data(), out.size(), "test blob");
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.f64(), -1.5e-300);
  EXPECT_TRUE(in.boolean());
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.str(), "hello checkpoint");
  EXPECT_EQ(in.vec_f64(), (std::vector<double>{1.0, -2.5, 3.25}));
  EXPECT_EQ(in.vec_u64(), (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(in.vec_i32(), (std::vector<int>{-1, 0, 1000000}));
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_NO_THROW(in.expect_end());
}

TEST(BinaryIo, DoublesTravelAsExactBitPatterns) {
  const std::vector<double> values{0.0, -0.0, 1.0 / 3.0, 1e308, 5e-324};
  BinaryWriter out;
  for (double v : values) out.f64(v);
  BinaryReader in(out.bytes().data(), out.size(), "doubles");
  for (double v : values) {
    const double r = in.f64();
    EXPECT_EQ(std::memcmp(&r, &v, sizeof v), 0);
  }
}

TEST(BinaryIo, ReadPastEndThrowsWithContext) {
  BinaryWriter out;
  out.u32(5);
  BinaryReader in(out.bytes().data(), out.size(), "section 'meta'");
  in.u32();
  expect_error_containing([&] { in.u64(); }, "section 'meta'");
  expect_error_containing(
      [&] {
        BinaryReader fresh(out.bytes().data(), out.size(), "x");
        fresh.u64();
      },
      "read past end");
}

TEST(BinaryIo, TrailingBytesRejectedByExpectEnd) {
  BinaryWriter out;
  out.u32(1);
  out.u8(0);  // the trailing byte
  BinaryReader in(out.bytes().data(), out.size(), "section 'meta'");
  in.u32();
  expect_error_containing([&] { in.expect_end(); }, "trailing");
}

TEST(BinaryIo, CorruptedSequenceLengthCannotDriveHugeAllocation) {
  // A length prefix larger than the remaining bytes must fail immediately,
  // not attempt a multi-gigabyte reserve.
  BinaryWriter out;
  out.u64(0xFFFFFFFFFFFFull);  // claims ~2^48 doubles follow
  BinaryReader in(out.bytes().data(), out.size(), "section 'ddpg'");
  expect_error_containing([&] { in.vec_f64(); }, "section 'ddpg'");
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical check value of CRC-32/ISO-HDLC.
  const char data[] = "123456789";
  EXPECT_EQ(crc32_of(data, 9), 0xCBF43926u);
}

TEST(Crc32, ChunkedEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t crc = crc32_init();
  crc = crc32_update(crc, data.data(), 10);
  crc = crc32_update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc32_final(crc), crc32_of(data.data(), data.size()));
}

// The definition of CRC-32, one bit at a time, with no table: the oracle
// the sliced implementation is checked against.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBitwiseReference) {
  Rng rng(77);
  std::vector<std::uint8_t> data(300 + 8);
  for (std::uint8_t& b : data)
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  // Every length 0-300 at every offset 0-7, so each 8-byte block and each
  // tail length is read at every alignment.
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 300; ++length)
      ASSERT_EQ(crc32_of(data.data() + offset, length),
                bitwise_crc32(data.data() + offset, length))
          << "offset " << offset << " length " << length;
  // Chunked updates whose split points fall inside 8-byte blocks.
  for (std::size_t first = 0; first <= 24; ++first)
    for (std::size_t second = 0; second <= 24; ++second) {
      std::uint32_t crc = crc32_init();
      crc = crc32_update(crc, data.data(), first);
      crc = crc32_update(crc, data.data() + first, second);
      crc = crc32_update(crc, data.data() + first + second,
                         300 - first - second);
      ASSERT_EQ(crc32_final(crc), bitwise_crc32(data.data(), 300))
          << "split at " << first << " and " << first + second;
    }
}

TEST(Checkpoint, RoundtripsSectionsInMemory) {
  CheckpointWriter writer;
  BinaryWriter a;
  a.u64(42);
  a.str("alpha");
  writer.add_section("meta", std::move(a));
  BinaryWriter b;
  b.vec_f64({1.0, 2.0});
  writer.add_section("ddpg", std::move(b));

  CheckpointReader reader(writer.to_bytes());
  EXPECT_EQ(reader.format_version(), kFormatVersion);
  EXPECT_TRUE(reader.has_section("meta"));
  EXPECT_TRUE(reader.has_section("ddpg"));
  EXPECT_FALSE(reader.has_section("nope"));
  EXPECT_EQ(reader.section_names(),
            (std::vector<std::string>{"meta", "ddpg"}));

  BinaryReader meta = reader.section("meta");
  EXPECT_EQ(meta.u64(), 42u);
  EXPECT_EQ(meta.str(), "alpha");
  meta.expect_end();
  BinaryReader ddpg = reader.section("ddpg");
  EXPECT_EQ(ddpg.vec_f64(), (std::vector<double>{1.0, 2.0}));
  ddpg.expect_end();
}

TEST(Checkpoint, MissingSectionThrowsDescriptively) {
  CheckpointWriter writer;
  BinaryWriter payload;
  payload.u8(1);
  writer.add_section("meta", std::move(payload));
  CheckpointReader reader(writer.to_bytes());
  expect_error_containing([&] { reader.section("dataset"); },
                          "no section 'dataset'");
}

TEST(Checkpoint, FileRoundtripAndNoLeftoverTempFile) {
  const std::string path = temp_path("roundtrip.ckpt");
  CheckpointWriter writer;
  BinaryWriter payload;
  payload.u64(7);
  writer.add_section("meta", std::move(payload));
  writer.write_file(path);

  // Atomic write: the temp file must not survive a successful rename.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());

  const CheckpointReader reader = CheckpointReader::open(path);
  BinaryReader meta = reader.section("meta");
  EXPECT_EQ(meta.u64(), 7u);
  std::remove(path.c_str());
}

TEST(Checkpoint, OverwriteReplacesExistingFileAtomically) {
  const std::string path = temp_path("overwrite.ckpt");
  for (std::uint64_t value : {1ull, 2ull}) {
    CheckpointWriter writer;
    BinaryWriter payload;
    payload.u64(value);
    writer.add_section("meta", std::move(payload));
    writer.write_file(path);
  }
  const CheckpointReader reader = CheckpointReader::open(path);
  BinaryReader meta = reader.section("meta");
  EXPECT_EQ(meta.u64(), 2u);
  std::remove(path.c_str());
}

// --- The four mandated corruption paths, each with its own message. ------

std::vector<std::uint8_t> valid_checkpoint_bytes() {
  CheckpointWriter writer;
  BinaryWriter payload;
  payload.vec_f64({3.14, 2.71, 1.41});
  writer.add_section("weights", std::move(payload));
  return writer.to_bytes();
}

TEST(CheckpointCorruption, TruncatedFileFailsAsTruncated) {
  std::vector<std::uint8_t> bytes = valid_checkpoint_bytes();
  bytes.resize(bytes.size() - 5);  // cut into the payload
  expect_error_containing([&] { CheckpointReader reader(std::move(bytes)); },
                          "truncated checkpoint");

  std::vector<std::uint8_t> header_cut = valid_checkpoint_bytes();
  header_cut.resize(6);  // shorter than magic + version
  expect_error_containing(
      [&] { CheckpointReader reader(std::move(header_cut)); },
      "truncated checkpoint");
}

TEST(CheckpointCorruption, FlippedBitFailsAsCrcMismatch) {
  std::vector<std::uint8_t> bytes = valid_checkpoint_bytes();
  bytes.back() ^= 0x01;  // single bit flip inside the payload
  expect_error_containing([&] { CheckpointReader reader(std::move(bytes)); },
                          "CRC mismatch");
}

TEST(CheckpointCorruption, WrongMagicFailsAsNotACheckpoint) {
  std::vector<std::uint8_t> bytes = valid_checkpoint_bytes();
  bytes[0] = 'X';
  expect_error_containing([&] { CheckpointReader reader(std::move(bytes)); },
                          "bad magic");
}

TEST(CheckpointCorruption, FutureFormatVersionIsRejected) {
  std::vector<std::uint8_t> bytes = valid_checkpoint_bytes();
  bytes[8] = 99;  // format_version u32 little-endian at offset 8
  expect_error_containing([&] { CheckpointReader reader(std::move(bytes)); },
                          "newer than this build supports");
}

TEST(CheckpointCorruption, AllFourFailuresAreDistinct) {
  // The messages must let an operator tell the failure modes apart.
  auto message_of = [](std::vector<std::uint8_t> bytes) -> std::string {
    try {
      CheckpointReader reader(std::move(bytes));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  std::vector<std::uint8_t> truncated = valid_checkpoint_bytes();
  truncated.resize(truncated.size() - 5);
  std::vector<std::uint8_t> flipped = valid_checkpoint_bytes();
  flipped.back() ^= 0x01;
  std::vector<std::uint8_t> magic = valid_checkpoint_bytes();
  magic[0] = 'X';
  std::vector<std::uint8_t> future = valid_checkpoint_bytes();
  future[8] = 99;

  const std::vector<std::string> messages{
      message_of(std::move(truncated)), message_of(std::move(flipped)),
      message_of(std::move(magic)), message_of(std::move(future))};
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_FALSE(messages[i].empty());
    for (std::size_t j = i + 1; j < messages.size(); ++j)
      EXPECT_NE(messages[i], messages[j]);
  }
}

TEST(CheckpointCorruption, CorruptionDetectedViaFileToo) {
  const std::string path = temp_path("corrupt.ckpt");
  std::vector<std::uint8_t> bytes = valid_checkpoint_bytes();
  bytes[bytes.size() / 2] ^= 0x40;
  write_file_bytes(path, bytes);
  expect_error_containing([&] { CheckpointReader::open(path); }, "persist:");
  std::remove(path.c_str());
}

TEST(CheckpointCorruption, UnreadableFileFailsDescriptively) {
  expect_error_containing(
      [] { CheckpointReader::open(temp_path("does_not_exist.ckpt")); },
      "cannot open");
}

TEST(RngStateEncoding, RoundtripsThroughContainer) {
  Rng rng(2024);
  for (int i = 0; i < 7; ++i) rng.normal();  // mid-stream, after normals
  for (int i = 0; i < 9; ++i) rng.next_u64();
  const RngState saved = rng.state();

  BinaryWriter out;
  write_rng_state(out, saved);
  EXPECT_EQ(out.size(), 4 * sizeof(std::uint64_t));  // format 2: words only
  BinaryReader in(out.bytes().data(), out.size(), "rng");
  const RngState loaded = read_rng_state(in);
  in.expect_end();
  EXPECT_EQ(loaded, saved);

  Rng resumed;
  resumed.set_state(loaded);
  EXPECT_EQ(resumed.next_u64(), rng.next_u64());
  EXPECT_EQ(resumed.normal(), rng.normal());
}

}  // namespace
}  // namespace miras::persist
