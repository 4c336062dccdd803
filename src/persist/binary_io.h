// Little-endian binary encoding primitives for the checkpoint container and
// the dist wire.
//
// BinaryWriter appends typed values to an in-memory byte buffer;
// BinaryReader decodes the same sequence with bounds-checked reads that
// throw std::runtime_error (never read out of bounds, never return
// partially-decoded values). Byte order is fixed little-endian regardless
// of host endianness, and doubles travel as their IEEE-754 bit patterns,
// so a checkpoint restores bit-identically across platforms. Every value
// moves through one little-endian load/store (little_endian.h), and a
// sequence is sized and bounds-checked once, then copied in bulk.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "persist/little_endian.h"

namespace miras::persist {

class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { detail::store_le(extend(4), v); }
  void u64(std::uint64_t v) { detail::store_le(extend(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);

  /// Length-prefixed (u64) element sequences.
  void vec_f64(const std::vector<double>& v);
  void vec_u64(const std::vector<std::uint64_t>& v);
  void vec_i32(const std::vector<int>& v);

  /// `count` doubles with no length prefix (the caller frames the count,
  /// as a tensor's shape does).
  void f64_array(const double* data, std::size_t count);

  /// Raw bytes, no length prefix (caller frames them).
  void raw(const void* data, std::size_t size);

  /// Drops the contents but keeps the capacity, so a writer reused as a
  /// per-message scratch buffer stops allocating once warm.
  void clear() { buf_.clear(); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  /// Grows the buffer by `count` bytes and returns where they start.
  std::uint8_t* extend(std::size_t count);

  std::vector<std::uint8_t> buf_;
};

/// Decoder over a borrowed byte range; the range must outlive the reader.
/// `context` names the section being decoded so bounds errors identify the
/// corrupted region ("persist: read past end of section 'ddpg'").
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size,
               std::string context);

  std::uint8_t u8() { return *need(1); }
  std::uint32_t u32() { return detail::load_le<std::uint32_t>(need(4)); }
  std::uint64_t u64() { return detail::load_le<std::uint64_t>(need(8)); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();

  std::string str();
  std::vector<double> vec_f64();
  std::vector<std::uint64_t> vec_u64();
  std::vector<int> vec_i32();

  /// vec_* decoding into a caller-owned buffer (resized, capacity reused):
  /// the same wire format, zero steady-state allocations when the element
  /// count is stable across calls — the streaming ingest paths depend on it.
  void vec_f64_into(std::vector<double>& out);
  void vec_i32_into(std::vector<int>& out);

  /// Reads `count` doubles written by BinaryWriter::f64_array.
  void f64_array(double* out, std::size_t count);

  /// Reads a u64 sequence length and checks it against the bytes that
  /// remain, given that each element takes at least `min_element_bytes` on
  /// the wire: a corrupted length throws here, before it can size an
  /// allocation.
  std::size_t count(std::size_t min_element_bytes);

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  const std::string& context() const { return context_; }

  /// Throws if any undecoded bytes remain — every section must be consumed
  /// exactly, so trailing garbage is an error, never silently ignored.
  void expect_end() const;

 private:
  const std::uint8_t* need(std::size_t count);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace miras::persist
