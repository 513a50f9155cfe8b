#include "util/io.hpp"

#include <fstream>
#include <random>

namespace iotscope::util {

namespace {
void write_bytes(std::ostream& os, const unsigned char* p, std::size_t n) {
  os.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void read_bytes(std::istream& is, unsigned char* p, std::size_t n) {
  is.read(reinterpret_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n) {
    throw IoError("unexpected end of stream");
  }
}
}  // namespace

void write_u8(std::ostream& os, std::uint8_t v) { write_bytes(os, &v, 1); }

void write_u16(std::ostream& os, std::uint16_t v) {
  unsigned char b[2] = {static_cast<unsigned char>(v),
                        static_cast<unsigned char>(v >> 8)};
  write_bytes(os, b, 2);
}

void write_u32(std::ostream& os, std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  write_bytes(os, b, 4);
}

void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  write_bytes(os, b, 8);
}

std::uint8_t read_u8(std::istream& is) {
  unsigned char b;
  read_bytes(is, &b, 1);
  return b;
}

std::uint16_t read_u16(std::istream& is) {
  unsigned char b[2];
  read_bytes(is, b, 2);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t read_u32(std::istream& is) {
  unsigned char b[4];
  read_bytes(is, b, 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char b[8];
  read_bytes(is, b, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is, std::uint32_t max_len) {
  const std::uint32_t len = read_u32(is);
  if (len > max_len) throw IoError("string length exceeds sanity cap");
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  if (static_cast<std::uint32_t>(is.gcount()) != len) {
    throw IoError("unexpected end of stream in string");
  }
  return s;
}

FileReader::FileReader(const std::filesystem::path& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) throw IoError("cannot open file: " + path.string());
  std::error_code ec;
  size_ = std::filesystem::file_size(path, ec);
  if (ec) throw IoError("cannot size file: " + path.string());
}

std::size_t FileReader::read_some(void* out, std::size_t n) {
  return static_cast<std::size_t>(in_.rdbuf()->sgetn(
      static_cast<char*>(out), static_cast<std::streamsize>(n)));
}

void FileReader::read_exact(void* out, std::size_t n) {
  if (read_some(out, n) != n) throw IoError("short read: " + path_.string());
}

std::string read_file(const std::filesystem::path& path) {
  // Sized once from the file system, filled by one read: a file that
  // yields fewer bytes than its size (truncated underneath us) or has no
  // size (a directory) is an error, not a silently shorter string.
  FileReader file(path);
  std::string data(static_cast<std::size_t>(file.size()), '\0');
  file.read_exact(data.data(), data.size());
  return data;
}

void write_file(const std::filesystem::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create file: " + path.string());
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) throw IoError("write failed: " + path.string());
}

TempDir::TempDir(const std::string& prefix) {
  const auto root = std::filesystem::temp_directory_path();
  std::random_device rd;
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto candidate = root / (prefix + "-" + std::to_string(rd()));
    std::error_code ec;
    if (std::filesystem::create_directory(candidate, ec)) {
      path_ = candidate;
      return;
    }
  }
  throw IoError("failed to create temporary directory");
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace iotscope::util
