// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum that
// guards every checkpoint section and dist frame against bit rot and torn
// writes. Incremental: crc32_update() lets callers checksum streamed chunks;
// crc32_of() is the one-shot form.
//
// Slice-by-8: table k maps a byte to its CRC contribution k bytes further
// up the stream, so the inner loop folds 8 bytes with 8 independent lookups
// instead of 8 dependent ones. The tables are constexpr (constant-
// initialised, no first-use guard); table 0 is the classic byte table, and
// the result equals the bytewise (and bitwise) definition for any input
// and any chunking.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "persist/little_endian.h"

namespace miras::persist {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t n = 0; n < 256; ++n)
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();
}  // namespace detail

/// Folds `size` bytes into a running CRC. Start from crc32_init(), finish
/// with crc32_final() — the split form mirrors zlib's interface so chunked
/// and one-shot checksums agree exactly.
inline std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const auto& t = detail::kCrc32Tables;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = crc ^ detail::load_le<std::uint32_t>(bytes);
    const std::uint32_t hi = detail::load_le<std::uint32_t>(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes)
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  return crc;
}

inline std::uint32_t crc32_final(std::uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32_of(const void* data, std::size_t size) {
  return crc32_final(crc32_update(crc32_init(), data, size));
}

/// FNV-1a 64-bit hash; used for configuration fingerprints (a checkpoint
/// refuses to restore into an agent built from a different config).
inline std::uint64_t fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace miras::persist
