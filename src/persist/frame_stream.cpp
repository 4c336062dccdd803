#include "persist/frame_stream.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "persist/crc32.h"

namespace miras::persist {

namespace {
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
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
  const auto* bytes = static_cast<const std::uint8_t*>(payload);
  put_u32(out, kFrameMagic);
  put_u32(out, static_cast<std::uint32_t>(size));
  put_u32(out, crc32_of(bytes, size));
  out.insert(out.end(), bytes, bytes + size);
}

void FrameDecoder::feed(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
  finished_ = false;
}

bool FrameDecoder::header_at(std::size_t pos,
                             std::uint32_t& payload_len) const {
  if (buffer_.size() - pos < kFrameHeaderSize) return false;
  if (get_u32(buffer_.data() + pos) != kFrameMagic) return false;
  payload_len = get_u32(buffer_.data() + pos + 4);
  return true;
}

void FrameDecoder::compact() {
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived decoder's memory stays bounded by the high-water frame size
  // instead of growing with total stream volume.
  if (head_ > 4096 && head_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

bool FrameDecoder::next(std::vector<std::uint8_t>& payload) {
  if (error_ != FrameError::kNone) return false;
  const std::size_t available = buffer_.size() - head_;
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
  payload.resize(payload_len);
  std::memcpy(payload.data(), body, payload_len);
  head_ += kFrameHeaderSize + payload_len;
  compact();
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
