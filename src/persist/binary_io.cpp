#include "persist/binary_io.h"

#include <limits>
#include <stdexcept>

namespace miras::persist {

std::uint8_t* BinaryWriter::extend(std::size_t count) {
  const std::size_t at = buf_.size();
  buf_.resize(at + count);
  return buf_.data() + at;
}

void BinaryWriter::str(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("persist: string too long to serialize");
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void BinaryWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  f64_array(v.data(), v.size());
}

void BinaryWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  detail::store_le_array(extend(8 * v.size()), v.data(), v.size());
}

void BinaryWriter::vec_i32(const std::vector<int>& v) {
  u64(v.size());
  std::uint8_t* out = extend(8 * v.size());
  for (const int x : v) {
    detail::store_le(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
    out += 8;
  }
}

void BinaryWriter::f64_array(const double* data, std::size_t count) {
  detail::store_le_array(extend(8 * count), data, count);
}

void BinaryWriter::raw(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + size);
}

BinaryReader::BinaryReader(const std::uint8_t* data, std::size_t size,
                           std::string context)
    : data_(data), size_(size), context_(std::move(context)) {}

const std::uint8_t* BinaryReader::need(std::size_t count) {
  if (count > size_ - pos_)
    throw std::runtime_error("persist: read past end of " + context_ +
                             " (wanted " + std::to_string(count) +
                             " bytes, have " + std::to_string(size_ - pos_) +
                             ") — truncated or corrupted data");
  const std::uint8_t* at = data_ + pos_;
  pos_ += count;
  return at;
}

bool BinaryReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1)
    throw std::runtime_error("persist: malformed boolean in " + context_);
  return v == 1;
}

std::string BinaryReader::str() {
  const std::uint32_t length = u32();
  const std::uint8_t* p = need(length);
  return std::string(reinterpret_cast<const char*>(p), length);
}

std::size_t BinaryReader::count(std::size_t min_element_bytes) {
  const std::uint64_t length = u64();
  // Sequence lengths are validated against the bytes actually remaining,
  // so a corrupted length cannot drive a multi-gigabyte allocation.
  if (length > remaining() / min_element_bytes)
    throw std::runtime_error("persist: sequence length " +
                             std::to_string(length) + " in " + context_ +
                             " exceeds remaining data — truncated or "
                             "corrupted data");
  return static_cast<std::size_t>(length);
}

std::vector<double> BinaryReader::vec_f64() {
  std::vector<double> v;
  vec_f64_into(v);
  return v;
}

std::vector<std::uint64_t> BinaryReader::vec_u64() {
  std::vector<std::uint64_t> v(count(8));
  detail::load_le_array(v.data(), need(8 * v.size()), v.size());
  return v;
}

std::vector<int> BinaryReader::vec_i32() {
  std::vector<int> v;
  vec_i32_into(v);
  return v;
}

void BinaryReader::vec_f64_into(std::vector<double>& out) {
  out.resize(count(8));
  f64_array(out.data(), out.size());
}

void BinaryReader::vec_i32_into(std::vector<int>& out) {
  out.resize(count(8));
  const std::uint8_t* p = need(8 * out.size());
  for (int& x : out) {
    x = static_cast<int>(
        static_cast<std::int64_t>(detail::load_le<std::uint64_t>(p)));
    p += 8;
  }
}

void BinaryReader::f64_array(double* out, std::size_t count) {
  if (count > remaining() / 8)
    throw std::runtime_error("persist: read past end of " + context_ +
                             " (wanted " + std::to_string(count) +
                             " doubles, have " + std::to_string(remaining()) +
                             " bytes) — truncated or corrupted data");
  detail::load_le_array(out, need(8 * count), count);
}

void BinaryReader::expect_end() const {
  if (pos_ != size_)
    throw std::runtime_error("persist: " + std::to_string(size_ - pos_) +
                             " trailing bytes after " + context_ +
                             " — refusing to ignore them");
}

}  // namespace miras::persist
