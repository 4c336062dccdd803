// Frame streaming (persist/frame_stream.h): the incremental decoder must
// survive arbitrary chunking (down to one byte at a time) and classify each
// corruption class with its own distinct, sticky error code. The fd helpers
// must mask EINTR and short reads/writes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "persist/frame_stream.h"

namespace miras::persist {
namespace {

std::vector<std::uint8_t> payload_bytes(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  append_frame(out, payload.data(), payload.size());
  return out;
}

TEST(DistFrameStream, RoundTripsSingleFrame) {
  const auto payload = payload_bytes("hello frame");
  const auto bytes = framed(payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.error(), FrameError::kNone);
  EXPECT_TRUE(decoder.at_boundary());
  EXPECT_FALSE(decoder.next(out));  // nothing further buffered
}

TEST(DistFrameStream, RoundTripsEmptyPayload) {
  const std::vector<std::uint8_t> payload;
  const auto bytes = framed(payload);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_TRUE(decoder.next(out));
  EXPECT_TRUE(out.empty());
}

TEST(DistFrameStream, SurvivesByteAtATimeChunking) {
  // Partial delivery is the normal case for pipes: feeding one byte at a
  // time must produce exactly the same payload sequence.
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    const auto payload = payload_bytes("msg" + std::to_string(i));
    const auto bytes = framed(payload);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameDecoder decoder;
  std::vector<std::vector<std::uint8_t>> received;
  std::vector<std::uint8_t> out;
  for (const std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    while (decoder.next(out)) received.push_back(out);
  }
  ASSERT_EQ(received.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(received[static_cast<std::size_t>(i)],
              payload_bytes("msg" + std::to_string(i)));
  EXPECT_EQ(decoder.error(), FrameError::kNone);
}

TEST(DistFrameStream, TruncatedFrameIsDistinctError) {
  const auto bytes = framed(payload_bytes("will be cut off"));
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 4);  // drop the tail
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(decoder.next(out));              // waiting, not an error yet
  EXPECT_EQ(decoder.error(), FrameError::kNone);
  decoder.finish();  // stream ended mid-frame
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.error(), FrameError::kTruncated);
}

TEST(DistFrameStream, FlippedCrcIsDistinctError) {
  auto bytes = framed(payload_bytes("checksummed"));
  bytes[8] ^= 0xFF;  // flip a CRC byte; header magic/length stay valid
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.error(), FrameError::kBadCrc);
  // Sticky: feeding more does not clear it.
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.error(), FrameError::kBadCrc);
}

TEST(DistFrameStream, CorruptPayloadIsBadCrc) {
  auto bytes = framed(payload_bytes("payload to corrupt"));
  bytes[kFrameHeaderSize + 3] ^= 0x01;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.error(), FrameError::kBadCrc);
}

TEST(DistFrameStream, GarbageBetweenFramesIsBadMagic) {
  const auto first = payload_bytes("first");
  const auto second = payload_bytes("second");
  std::vector<std::uint8_t> stream = framed(first);
  const auto garbage = payload_bytes("!garbage!");
  stream.insert(stream.end(), garbage.begin(), garbage.end());
  const auto tail = framed(second);
  stream.insert(stream.end(), tail.begin(), tail.end());

  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out, first);
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.error(), FrameError::kBadMagic);
  // Sticky: the valid frame after the garbage is never decoded.
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.error(), FrameError::kBadMagic);
}

TEST(DistFrameStream, OversizedLengthIsBadLength) {
  std::vector<std::uint8_t> bytes(kFrameHeaderSize, 0);
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(bytes.data(), &magic, 4);
  std::memcpy(bytes.data() + 4, &huge, 4);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.error(), FrameError::kBadLength);
}

TEST(DistFrameStream, DistinctErrorNames) {
  // The codes are an API: each corruption class reports itself distinctly.
  const std::string truncated = frame_error_name(FrameError::kTruncated);
  const std::string bad_magic = frame_error_name(FrameError::kBadMagic);
  const std::string bad_crc = frame_error_name(FrameError::kBadCrc);
  const std::string bad_length = frame_error_name(FrameError::kBadLength);
  EXPECT_NE(truncated, bad_magic);
  EXPECT_NE(truncated, bad_crc);
  EXPECT_NE(truncated, bad_length);
  EXPECT_NE(bad_magic, bad_crc);
  EXPECT_NE(bad_magic, bad_length);
  EXPECT_NE(bad_crc, bad_length);
}

TEST(DistFrameStream, AppendFrameReusesCapacity) {
  const auto payload = payload_bytes("steady state payload");
  std::vector<std::uint8_t> frame;
  append_frame(frame, payload.data(), payload.size());
  const std::size_t capacity = frame.capacity();
  for (int i = 0; i < 100; ++i) {
    frame.clear();
    append_frame(frame, payload.data(), payload.size());
    EXPECT_EQ(frame.capacity(), capacity);
  }
}

TEST(DistFrameStream, FdHelpersRoundTripThroughPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const auto payload = payload_bytes("through the pipe");
  const auto bytes = framed(payload);
  write_all_fd(fds[1], bytes.data(), bytes.size());
  ::close(fds[1]);

  FrameDecoder decoder;
  std::uint8_t chunk[7];  // deliberately tiny, forcing short reads
  for (;;) {
    const std::size_t n = read_some_fd(fds[0], chunk, sizeof chunk);
    if (n == 0) break;
    decoder.feed(chunk, n);
  }
  ::close(fds[0]);
  decoder.finish();
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.error(), FrameError::kNone);
}

}  // namespace
}  // namespace miras::persist
