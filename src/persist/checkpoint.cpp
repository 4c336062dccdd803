#include "persist/checkpoint.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "persist/crc32.h"

namespace miras::persist {

void CheckpointWriter::add_section(const std::string& name,
                                   BinaryWriter payload) {
  for (const Section& section : sections_)
    if (section.name == name)
      throw std::runtime_error("persist: duplicate section '" + name + "'");
  sections_.push_back(Section{name, payload.take()});
}

std::vector<std::uint8_t> CheckpointWriter::to_bytes() const {
  // The table's size depends only on the section names, so lay it out in
  // two passes: measure, then emit with final payload offsets.
  std::size_t table_size = 0;
  for (const Section& section : sections_)
    table_size += 4 + section.name.size() + 8 + 8 + 4;
  const std::size_t header_size = sizeof(kMagic) + 4 + 4;

  BinaryWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kFormatVersion);
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  std::size_t payload_offset = header_size + table_size;
  for (const Section& section : sections_) {
    out.str(section.name);
    out.u64(payload_offset);
    out.u64(section.payload.size());
    out.u32(crc32_of(section.payload.data(), section.payload.size()));
    payload_offset += section.payload.size();
  }
  for (const Section& section : sections_)
    out.raw(section.payload.data(), section.payload.size());
  return out.take();
}

void CheckpointWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = to_bytes();
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr)
    throw std::runtime_error("persist: cannot open '" + tmp_path +
                             "' for writing");
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  if (std::fclose(file) != 0 || !written) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("persist: failed writing '" + tmp_path + "'");
  }
  // rename(2) is atomic within a filesystem: a crash leaves either the old
  // complete checkpoint or the new complete checkpoint, never a torn file.
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("persist: cannot rename '" + tmp_path +
                             "' to '" + path + "'");
  }
}

CheckpointReader::CheckpointReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  const std::size_t header_size = sizeof(kMagic) + 4 + 4;
  if (bytes_.size() < header_size)
    throw std::runtime_error(
        "persist: truncated checkpoint — file smaller than the header");
  if (std::memcmp(bytes_.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error(
        "persist: bad magic — this is not a MIRAS checkpoint file");
  BinaryReader header(bytes_.data() + sizeof(kMagic),
                      bytes_.size() - sizeof(kMagic), "checkpoint header");
  format_version_ = header.u32();
  if (format_version_ > kFormatVersion)
    throw std::runtime_error(
        "persist: checkpoint format version " +
        std::to_string(format_version_) +
        " is newer than this build supports (max " +
        std::to_string(kFormatVersion) + ") — upgrade the binary");
  const std::uint32_t section_count = header.u32();
  // The table reader is bounds-limited to the file, so a lying
  // section_count degrades into a "read past end" error, never a wild read.
  BinaryReader table(bytes_.data() + header_size, bytes_.size() - header_size,
                     "checkpoint section table");
  for (std::uint32_t i = 0; i < section_count; ++i) {
    Section section;
    section.name = table.str();
    const std::uint64_t offset = table.u64();
    const std::uint64_t size = table.u64();
    const std::uint32_t expected_crc = table.u32();
    if (offset > bytes_.size() || size > bytes_.size() - offset)
      throw std::runtime_error("persist: truncated checkpoint — section '" +
                               section.name + "' extends past end of file");
    section.offset = static_cast<std::size_t>(offset);
    section.size = static_cast<std::size_t>(size);
    const std::uint32_t actual_crc =
        crc32_of(bytes_.data() + section.offset, section.size);
    if (actual_crc != expected_crc)
      throw std::runtime_error("persist: CRC mismatch in section '" +
                               section.name +
                               "' — checkpoint is corrupted");
    sections_.push_back(std::move(section));
  }
}

CheckpointReader CheckpointReader::open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    throw std::runtime_error("persist: cannot open checkpoint '" + path +
                             "'");
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error)
    throw std::runtime_error("persist: I/O error reading checkpoint '" +
                             path + "'");
  return CheckpointReader(std::move(bytes));
}

bool CheckpointReader::has_section(const std::string& name) const {
  for (const Section& section : sections_)
    if (section.name == name) return true;
  return false;
}

std::vector<std::string> CheckpointReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& section : sections_) names.push_back(section.name);
  return names;
}

const CheckpointReader::Section& CheckpointReader::find(
    const std::string& name) const {
  for (const Section& section : sections_)
    if (section.name == name) return section;
  throw std::runtime_error("persist: checkpoint has no section '" + name +
                           "'");
}

BinaryReader CheckpointReader::section(const std::string& name) const {
  const Section& section = find(name);
  return BinaryReader(bytes_.data() + section.offset, section.size,
                      "section '" + name + "'");
}

void write_rng_state(BinaryWriter& out, const RngState& state) {
  for (const std::uint64_t word : state.words) out.u64(word);
}

RngState read_rng_state(BinaryReader& in) {
  RngState state;
  for (std::uint64_t& word : state.words) word = in.u64();
  return state;
}

}  // namespace miras::persist
