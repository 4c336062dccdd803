// The miras::persist checkpoint container: a versioned, CRC-32-checksummed,
// little-endian binary file holding named sections.
//
// Layout (all integers little-endian):
//
//   offset 0   magic           8 bytes  "MIRASCKP"
//   offset 8   format_version  u32      (kFormatVersion when written)
//   offset 12  section_count   u32
//              section table   per section: name (u32 length + bytes),
//                              payload offset u64 (absolute, from file
//                              start), payload size u64, payload crc32 u32
//              payloads        concatenated section byte blobs
//
// Version/compat policy: readers accept any format_version <= their own
// kFormatVersion and reject newer files with a descriptive error (forward
// compatibility is never guessed at). Adding a *section* is backward
// compatible — old sections keep their meaning and readers look sections up
// by name — so the version only bumps when an existing section's encoding
// changes.
//
// Format history:
//   1  every rng stream carried its four xoshiro words plus the pending
//      second value of the old two-at-a-time normal sampler.
//   2  rng streams are the four words alone (Rng::normal became a ziggurat,
//      which keeps no value between draws).
//   3  the "ddpg" section drops its twin-critic flag byte; the second
//      critic, its target and its optimiser are always present.
// Format-1 and format-2 files still open, and their "servable" section
// still loads (its encoding never changed). Resuming *training* from either
// is refused (kMinResumableFormat), each with its own error: a format-1
// file's streams were drawn by the old sampler, and continuing them with
// the new one would silently diverge from the uninterrupted run; a format-2
// file's "ddpg" section no longer parses.
//
// Writes are atomic: the file is written to "<path>.tmp", flushed and
// fsync'd, then rename(2)'d over the destination — a crash or SIGKILL at
// any instant leaves either the old complete file or the new complete
// file, never a torn one. Every section's CRC is verified at open, so a
// corrupted file fails loudly before any state is restored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "persist/binary_io.h"

namespace miras::persist {

inline constexpr std::uint32_t kFormatVersion = 3;
/// Oldest format whose training state the current code can continue.
inline constexpr std::uint32_t kMinResumableFormat = 3;
inline constexpr char kMagic[8] = {'M', 'I', 'R', 'A', 'S', 'C', 'K', 'P'};

/// Accumulates named sections and writes the container atomically.
class CheckpointWriter {
 public:
  /// Adds a section; names must be unique within one checkpoint.
  void add_section(const std::string& name, BinaryWriter payload);

  /// Serialises the container to bytes (header + table + payloads).
  std::vector<std::uint8_t> to_bytes() const;

  /// Atomic write: to_bytes() lands at `path` via write-to-temp + fsync +
  /// rename. Throws std::runtime_error on any I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

/// Parses and validates a container. All structural checks — magic,
/// version, table bounds, per-section CRC — run at construction; section()
/// then hands out bounds-checked readers over the validated payloads.
class CheckpointReader {
 public:
  /// Parses in-memory bytes (the reader keeps its own copy).
  explicit CheckpointReader(std::vector<std::uint8_t> bytes);

  /// Reads and parses `path`. Throws std::runtime_error with a distinct
  /// message for: unreadable file, truncated file, wrong magic, newer
  /// format version, malformed section table, CRC mismatch.
  static CheckpointReader open(const std::string& path);

  std::uint32_t format_version() const { return format_version_; }
  bool has_section(const std::string& name) const;
  std::vector<std::string> section_names() const;

  /// Reader over the named section's payload; throws if absent.
  BinaryReader section(const std::string& name) const;

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;
    std::size_t size = 0;
  };
  const Section& find(const std::string& name) const;

  std::vector<std::uint8_t> bytes_;
  std::uint32_t format_version_ = 0;
  std::vector<Section> sections_;
};

/// Rng stream encoding shared by every subsystem's snapshot: the four
/// xoshiro words (format 2).
void write_rng_state(BinaryWriter& out, const RngState& state);
RngState read_rng_state(BinaryReader& in);

}  // namespace miras::persist
