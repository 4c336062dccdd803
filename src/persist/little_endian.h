// The one little-endian load/store of the persist encodings (the binary
// codec, the frame header and the CRC's 8-byte blocks). Values move with
// std::memcpy, so unaligned buffers are fine, and bytes are swapped only on
// a big-endian host: on a little-endian one a store is a plain copy and an
// array store is one memcpy.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace miras::persist::detail {

template <typename T>
T byteswap(T value) {
  static_assert(std::is_unsigned_v<T>);
  T swapped = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    swapped = static_cast<T>((swapped << 8) | (value & 0xFFu));
    value = static_cast<T>(value >> 8);
  }
  return swapped;
}

template <typename T>
void store_le(std::uint8_t* dst, T value) {
  if constexpr (std::endian::native == std::endian::big)
    value = byteswap(value);
  std::memcpy(dst, &value, sizeof value);
}

template <typename T>
T load_le(const std::uint8_t* src) {
  T value;
  std::memcpy(&value, src, sizeof value);
  if constexpr (std::endian::native == std::endian::big)
    value = byteswap(value);
  return value;
}

/// Stores `count` values of the 8-byte type T (a double travels as its
/// IEEE-754 bit pattern) as consecutive little-endian u64s.
template <typename T>
void store_le_array(std::uint8_t* dst, const T* src, std::size_t count) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i)
      store_le(dst + 8 * i, std::bit_cast<std::uint64_t>(src[i]));
  }
}

/// Inverse of store_le_array.
template <typename T>
void load_le_array(T* dst, const std::uint8_t* src, std::size_t count) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i)
      dst[i] = std::bit_cast<T>(load_le<std::uint64_t>(src + 8 * i));
  }
}

}  // namespace miras::persist::detail
