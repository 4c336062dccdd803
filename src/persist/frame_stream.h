// Length-prefixed, CRC-checked frame streaming over byte streams.
//
// The checkpoint container (checkpoint.h) assumes it holds a whole file; the
// distributed actor-learner wire (src/dist/) instead streams an unbounded
// sequence of messages over pipes or sockets. A frame wraps one message
// payload so the receiver can (a) find message boundaries in a byte stream
// delivered in arbitrary-size chunks, and (b) detect corruption before
// acting on a payload:
//
//   offset 0  magic        u32  kFrameMagic ("MFR0" little-endian)
//   offset 4  payload_len  u32
//   offset 8  payload_crc  u32  CRC-32 of the payload bytes
//   offset 12 payload      payload_len bytes
//
// FrameDecoder is a pure incremental parser: feed() it whatever bytes
// arrived (any chunking, down to one byte at a time — partial reads are the
// normal case, not an error) and next() emits complete payloads. Corruption
// classes map to *distinct* error codes so callers and tests can tell them
// apart: a stream ending mid-frame is kTruncated, a frame whose payload
// fails its CRC is kBadCrc, bytes between frames that are not a frame
// header are kBadMagic, and a length field beyond the sanity cap is
// kBadLength. Errors are sticky: a decoder that reported one never decodes
// again, and its owner treats the stream as dead.
//
// The raw-fd helpers at the bottom retry EINTR and short reads/writes; they
// are what the pipe transport builds on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace miras::persist {

inline constexpr std::uint32_t kFrameMagic = 0x3052464DU;  // "MFR0"
inline constexpr std::size_t kFrameHeaderSize = 12;
/// Sanity cap on a single frame payload. Wire messages are transition
/// batches and weight snapshots — megabytes at most; a length beyond this is
/// corruption, not data, and must not drive a giant allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1U << 30;

enum class FrameError : std::uint8_t {
  kNone = 0,
  /// finish() was called (stream ended) with a partial frame buffered.
  kTruncated,
  /// The next buffered bytes are not a frame header.
  kBadMagic,
  /// A complete frame arrived but its payload failed the CRC check.
  kBadCrc,
  /// Header length field exceeds kMaxFramePayload.
  kBadLength,
};

const char* frame_error_name(FrameError error);

/// Appends one encoded frame wrapping `payload` to `out`. Reuses `out`'s
/// capacity — clear() + append_frame in a loop is allocation-free once the
/// high-water mark is reached.
void append_frame(std::vector<std::uint8_t>& out, const void* payload,
                  std::size_t size);

class FrameDecoder {
 public:
  /// Buffers `size` incoming bytes (any chunking).
  void feed(const void* data, std::size_t size);

  /// The zero-copy form of feed(): returns room for `size` more bytes at
  /// the end of the buffer, valid until the next call on the decoder. A
  /// reader writes n <= size bytes there, then calls commit(n).
  std::uint8_t* prepare(std::size_t size);
  void commit(std::size_t size);

  /// Extracts the next complete frame's payload into `payload` (resized,
  /// capacity reused). Returns true when a frame was produced; false when
  /// more bytes are needed *or* the decoder is in an error state — check
  /// error() to distinguish. After an error, next() keeps returning false.
  bool next(std::vector<std::uint8_t>& payload);

  /// Declares end-of-stream: a partially buffered frame becomes kTruncated.
  /// Safe to call when the buffer is empty or holds only complete frames.
  void finish();

  FrameError error() const { return error_; }

  /// True when no partial frame is buffered (a clean stream boundary).
  bool at_boundary() const { return end_ == head_; }

  std::size_t buffered_bytes() const { return end_ - head_; }

 private:
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  // consumed prefix of buffer_
  std::size_t end_ = 0;   // bytes of buffer_ holding received data
  FrameError error_ = FrameError::kNone;
  bool finished_ = false;
};

/// EINTR-safe full write: loops until all `size` bytes are written. Throws
/// std::runtime_error on a real error (EPIPE, closed fd, ...).
void write_all_fd(int fd, const void* data, std::size_t size);

/// EINTR-safe read of up to `size` bytes. Returns the count read; 0 means
/// end-of-stream. Throws std::runtime_error on a real error.
std::size_t read_some_fd(int fd, void* data, std::size_t size);

}  // namespace miras::persist
