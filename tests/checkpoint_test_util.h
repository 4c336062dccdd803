// Rewrites a current checkpoint as an older container format wrote it, so
// the resume and serving suites can check how each old format is handled
// (persist/checkpoint.h's format history).
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "persist/binary_io.h"
#include "persist/checkpoint.h"

namespace miras::persist::test {

/// Overwrites the header's format_version (the u32 at offset 8) of the
/// checkpoint at `path`. Section CRCs cover payloads only, so it still opens.
inline void stamp_format_version(const std::string& path,
                                 std::uint32_t version) {
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (int i = 0; i < 4; ++i)
    bytes.at(8 + i) = static_cast<char>((version >> (8 * i)) & 0xFF);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites the format-3 checkpoint at `path` as format 2 wrote it: the
/// "ddpg" section regains the twin-critic flag byte (true) that followed
/// its three identity fields, and the header says format 2.
inline void downgrade_to_format_two(const std::string& path) {
  constexpr std::size_t kTwinFlagOffset = 24;  // state_dim, action_dim, budget
  const CheckpointReader ckpt = CheckpointReader::open(path);
  CheckpointWriter writer;
  for (const std::string& name : ckpt.section_names()) {
    BinaryReader in = ckpt.section(name);
    BinaryWriter payload;
    for (std::size_t at = 0; in.remaining() > 0; ++at) {
      if (name == "ddpg" && at == kTwinFlagOffset) payload.boolean(true);
      payload.u8(in.u8());
    }
    writer.add_section(name, std::move(payload));
  }
  writer.write_file(path);
  stamp_format_version(path, 2);
}

}  // namespace miras::persist::test
