#include "persist/frame_stream.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/contracts.h"
#include "persist/crc32.h"
#include "persist/little_endian.h"

namespace miras::persist {

namespace {
std::uint32_t get_u32(const std::uint8_t* p) {
  return detail::load_le<std::uint32_t>(p);
}
}  // namespace

const char* frame_error_name(FrameError error) {
  switch (error) {
    case FrameError::kNone:
      return "none";
    case FrameError::kTruncated:
      return "truncated frame";
    case FrameError::kBadMagic:
      return "bad frame magic";
    case FrameError::kBadCrc:
      return "frame crc mismatch";
    case FrameError::kBadLength:
      return "frame length out of range";
  }
  return "unknown frame error";
}

void append_frame(std::vector<std::uint8_t>& out, const void* payload,
                  std::size_t size) {
  if (size > kMaxFramePayload)
    throw std::runtime_error("persist: frame payload of " +
                             std::to_string(size) +
                             " bytes exceeds the frame size cap");
  const std::size_t at = out.size();
  out.resize(at + kFrameHeaderSize + size);
  std::uint8_t* frame = out.data() + at;
  detail::store_le(frame, kFrameMagic);
  detail::store_le(frame + 4, static_cast<std::uint32_t>(size));
  detail::store_le(frame + 8, crc32_of(payload, size));
  if (size > 0) std::memcpy(frame + kFrameHeaderSize, payload, size);
}

void FrameDecoder::feed(const void* data, std::size_t size) {
  std::uint8_t* at = prepare(size);
  if (size > 0) std::memcpy(at, data, size);
  commit(size);
}

std::uint8_t* FrameDecoder::prepare(std::size_t size) {
  compact();
  if (buffer_.size() - end_ < size) buffer_.resize(end_ + size);
  return buffer_.data() + end_;
}

void FrameDecoder::commit(std::size_t size) {
  MIRAS_EXPECTS(size <= buffer_.size() - end_);
  end_ += size;
  finished_ = false;
}

void FrameDecoder::compact() {
  // Reclaim the consumed prefix: free when nothing is buffered, else once
  // it dominates the live bytes, so a long-lived decoder's memory stays
  // bounded by the high-water frame size instead of growing with total
  // stream volume.
  if (head_ == end_) {
    head_ = end_ = 0;
  } else if (head_ > 4096 && head_ >= end_ - head_) {
    std::memmove(buffer_.data(), buffer_.data() + head_, end_ - head_);
    end_ -= head_;
    head_ = 0;
  }
}

bool FrameDecoder::next(std::vector<std::uint8_t>& payload) {
  if (error_ != FrameError::kNone) return false;
  const std::size_t available = end_ - head_;
  if (available < kFrameHeaderSize) {
    if (finished_ && available > 0) error_ = FrameError::kTruncated;
    return false;
  }
  if (get_u32(buffer_.data() + head_) != kFrameMagic) {
    error_ = FrameError::kBadMagic;
    return false;
  }
  const std::uint32_t payload_len = get_u32(buffer_.data() + head_ + 4);
  if (payload_len > kMaxFramePayload) {
    error_ = FrameError::kBadLength;
    return false;
  }
  if (available < kFrameHeaderSize + payload_len) {
    if (finished_) error_ = FrameError::kTruncated;
    return false;
  }
  const std::uint32_t expected_crc = get_u32(buffer_.data() + head_ + 8);
  const std::uint8_t* body = buffer_.data() + head_ + kFrameHeaderSize;
  if (crc32_of(body, payload_len) != expected_crc) {
    error_ = FrameError::kBadCrc;
    return false;
  }
  payload.assign(body, body + payload_len);
  head_ += kFrameHeaderSize + payload_len;
  return true;
}

void FrameDecoder::finish() { finished_ = true; }

void write_all_fd(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(
          std::string("persist: frame write failed: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

std::size_t read_some_fd(int fd, void* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::read(fd, data, size);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("persist: frame read failed: ") +
                             std::strerror(errno));
  }
}

}  // namespace miras::persist
