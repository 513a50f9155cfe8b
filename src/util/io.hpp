// Endian-stable binary stream primitives used by the flowtuple and pcap
// codecs, plus small filesystem helpers. All multi-byte integers on disk
// are little-endian regardless of host order.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace iotscope::util {

/// Error raised by codecs on malformed or truncated input.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Little-endian loads from an unaligned byte pointer. On little-endian
/// hosts these compile to single unaligned loads; the portable shift form
/// is kept for big-endian targets.
inline std::uint16_t load_le16(const unsigned char* b) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint16_t v;
    std::memcpy(&v, b, sizeof v);
    return v;
  } else {
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
}

inline std::uint32_t load_le32(const unsigned char* b) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, b, sizeof v);
    return v;
  } else {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
}

inline std::uint64_t load_le64(const unsigned char* b) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, b, sizeof v);
    return v;
  } else {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
}

/// Little-endian stores to an unaligned byte pointer.
inline void store_le16(unsigned char* b, std::uint16_t v) noexcept {
  b[0] = static_cast<unsigned char>(v);
  b[1] = static_cast<unsigned char>(v >> 8);
}

inline void store_le32(unsigned char* b, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline void store_le64(unsigned char* b, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
}

/// Bounds-checked little-endian cursor over an in-memory byte buffer —
/// the block-decode counterpart of the read_* stream primitives below.
/// Codecs map or read a file once and decode with plain pointer
/// arithmetic instead of one virtual istream read per field. Overrunning
/// the buffer throws IoError, mirroring the stream primitives' EOF
/// behaviour ("unexpected end of stream").
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size) noexcept
      : p_(static_cast<const unsigned char*>(data)), end_(p_ + size) {}
  explicit ByteReader(std::string_view blob) noexcept
      : ByteReader(blob.data(), blob.size()) {}

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  bool done() const noexcept { return p_ == end_; }

  /// Consumes n bytes, returning a pointer to them; throws IoError if
  /// fewer remain. The pointer is valid for the underlying buffer's life.
  const unsigned char* bytes(std::size_t n) {
    if (remaining() < n) throw IoError("unexpected end of stream");
    const unsigned char* q = p_;
    p_ += n;
    return q;
  }

  std::uint8_t u8() { return *bytes(1); }
  std::uint16_t u16() { return load_le16(bytes(2)); }
  std::uint32_t u32() { return load_le32(bytes(4)); }
  std::uint64_t u64() { return load_le64(bytes(8)); }

  /// Unchecked cursor access for decoders that have already verified
  /// bounds against remaining() — advance(n) past the end is UB.
  const unsigned char* cursor() const noexcept { return p_; }
  void advance(std::size_t n) noexcept { p_ += n; }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

/// Append-only little-endian encoder over a caller-owned contiguous
/// buffer; the block-encode counterpart of the write_* stream primitives.
/// One os.write of the finished buffer replaces per-field stream writes.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) noexcept : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) {
    unsigned char b[2];
    store_le16(b, v);
    bytes(b, sizeof b);
  }
  void u32(std::uint32_t v) {
    unsigned char b[4];
    store_le32(b, v);
    bytes(b, sizeof b);
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    store_le64(b, v);
    bytes(b, sizeof b);
  }
  void bytes(const void* data, std::size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

 private:
  std::string* out_;
};

/// Writes an unsigned integer little-endian.
void write_u8(std::ostream& os, std::uint8_t v);
void write_u16(std::ostream& os, std::uint16_t v);
void write_u32(std::ostream& os, std::uint32_t v);
void write_u64(std::ostream& os, std::uint64_t v);

/// Reads an unsigned integer little-endian; throws IoError on EOF.
std::uint8_t read_u8(std::istream& is);
std::uint16_t read_u16(std::istream& is);
std::uint32_t read_u32(std::istream& is);
std::uint64_t read_u64(std::istream& is);

/// Writes a length-prefixed (u32) UTF-8 string.
void write_string(std::ostream& os, const std::string& s);
/// Reads a length-prefixed string; enforces the given sanity cap.
std::string read_string(std::istream& is, std::uint32_t max_len = 1 << 20);

/// Sequential reader over one regular file whose size is taken at open:
/// the read path for decoders that fill their output straight from the
/// file through a caller-owned buffer, chunk by chunk.
class FileReader {
 public:
  /// Opens the file and takes its size; throws IoError if it cannot be
  /// opened or sized (a directory opens on Linux but has no size).
  explicit FileReader(const std::filesystem::path& path);

  std::uint64_t size() const noexcept { return size_; }

  /// Reads up to n bytes into out; fewer only where the file ends.
  std::size_t read_some(void* out, std::size_t n);
  /// Reads exactly n bytes into out; throws IoError if the file ends
  /// first (it shrank underneath the reader).
  void read_exact(void* out, std::size_t n);

 private:
  std::filesystem::path path_;
  std::ifstream in_;
  std::uint64_t size_ = 0;
};

/// Reads an entire regular file into a string sized once from the file's
/// size, in one read; throws IoError if it cannot be opened or sized, or
/// yields fewer bytes than its size.
std::string read_file(const std::filesystem::path& path);

/// Writes a string to a file atomically-ish (write then rename not needed
/// for our single-process use; direct write with error checking).
void write_file(const std::filesystem::path& path, const std::string& data);

/// Creates a unique temporary directory under the system temp root and
/// removes it (recursively) on destruction. Used by tests and examples.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "iotscope");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace iotscope::util
