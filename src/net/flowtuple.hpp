// The flowtuple record and hourly file format — our reimplementation of the
// CAIDA/corsaro "flowtuple" representation the paper consumes. Each hourly
// file holds aggregated one-way flows: the 8-field key the UCSD telescope
// retains (src/dst IP, src/dst port, protocol, TTL, TCP flags, IP length)
// plus a packet count.
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <ostream>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/protocol.hpp"

namespace iotscope::net {

struct FlowBatch;  // net/flow_batch.hpp — the SoA twin of HourlyFlows

/// The aggregation key + count. For ICMP flows, src_port/dst_port carry the
/// ICMP type/code (the corsaro convention), so no information is lost.
struct FlowTuple {
  Ipv4Address src;
  Ipv4Address dst;
  Port src_port = 0;
  Port dst_port = 0;
  Protocol protocol = Protocol::Tcp;
  std::uint8_t ttl = 0;
  std::uint8_t tcp_flags = 0;
  std::uint16_t ip_length = 0;
  std::uint64_t packet_count = 0;

  /// The key fields (everything except packet_count) compare equal.
  bool same_key(const FlowTuple& other) const noexcept {
    return src == other.src && dst == other.dst &&
           src_port == other.src_port && dst_port == other.dst_port &&
           protocol == other.protocol && ttl == other.ttl &&
           tcp_flags == other.tcp_flags && ip_length == other.ip_length;
  }

  /// Builds the key portion of a flowtuple from a packet (count = 1).
  static FlowTuple from_packet(const PacketRecord& p) noexcept;

  /// ICMP type stored in the port fields per the corsaro convention.
  IcmpType icmp_type() const noexcept {
    return static_cast<IcmpType>(src_port);
  }

  friend bool operator==(const FlowTuple&, const FlowTuple&) = default;
};

/// Hash over the flowtuple key (ignores packet_count) for aggregation maps.
struct FlowTupleKeyHash {
  std::size_t operator()(const FlowTuple& t) const noexcept;
};
/// Key equality (ignores packet_count).
struct FlowTupleKeyEq {
  bool operator()(const FlowTuple& a, const FlowTuple& b) const noexcept {
    return a.same_key(b);
  }
};

/// One hour of telescope flows: the interval index within the analysis
/// window and the aggregated records for that hour.
struct HourlyFlows {
  int interval = 0;                ///< hour index in [0, AnalysisWindow::kHours)
  std::int64_t start_time = 0;     ///< unix time of the hour's start
  std::vector<FlowTuple> records;  ///< aggregated flows, arbitrary order

  /// Sum of packet counts over all records.
  std::uint64_t total_packets() const noexcept;
};

/// Binary codec for hourly flowtuple files.
///
/// Layout: magic "IFT1", format version (u16), interval (u32), start time
/// (u64), record count (u64), then fixed-width 25-byte records. All
/// integers little-endian. Readers validate magic/version and record
/// bounds and throw util::IoError on malformed input.
///
/// Hot path: encode()/decode_columns() run over a contiguous in-memory
/// buffer (util::ByteWriter/ByteReader) — one bounds check for all the
/// records the bytes hold instead of four-to-nine virtual istream reads
/// per record. The stream overloads and the file helpers route through
/// them (read_columns() feeds the record decoder from the file in 100 KiB
/// chunks); read_unbuffered() keeps the original per-field istream decoder
/// as the reference implementation for equivalence tests and the bench
/// ablation.
class FlowTupleCodec {
 public:
  static constexpr std::uint32_t kMagic = 0x31544649;  // "IFT1"
  static constexpr std::uint16_t kVersion = 1;
  /// On-disk size of one record (src, dst, ports, proto, ttl, flags,
  /// ip_length, packet_count): 4+4+2+2+1+1+1+2+8.
  static constexpr std::size_t kRecordBytes = 25;

  /// Appends the exact on-disk byte stream for `flows` to `out`.
  static void encode(std::string& out, const HourlyFlows& flows);
  /// Columnar encode: identical byte stream, reading from a FlowBatch's
  /// column vectors instead of AoS records (class_tag is derived state
  /// and never serialized).
  static void encode(std::string& out, const FlowBatch& batch);
  /// Decodes a complete in-memory blob: validates magic, version, the
  /// record-count cap, each record's protocol and truncation, sizes every
  /// column once from the count clamped to the bytes present, and fills
  /// the columns by index, so records never materialize as AoS structs.
  /// Trailing bytes after the declared records are ignored, matching the
  /// stream decoder.
  static FlowBatch decode_columns(std::string_view blob);
  /// The store's read path for a raw hour: decode_columns() over the
  /// file's bytes, with the clamp taken from the file's size and the
  /// records read through one 100 KiB buffer straight into the sized
  /// columns, so the hour is never held whole in memory. Same checks, in
  /// the same order, with the same util::IoError messages.
  static FlowBatch read_columns(const std::filesystem::path& path);
  /// Row form of decode_columns(): same validation and error surface.
  static HourlyFlows decode(std::string_view blob);

  static void write(std::ostream& os, const HourlyFlows& flows);
  static HourlyFlows read(std::istream& is);

  /// Reference decoder: the per-field istream path decode() replaced.
  /// Kept (not used by production code) so tests can pin byte-for-byte
  /// acceptance and error parity between the two implementations.
  static HourlyFlows read_unbuffered(std::istream& is);

  static void write_file(const std::filesystem::path& path,
                         const HourlyFlows& flows);
  /// Row form of read_columns().
  static HourlyFlows read_file(const std::filesystem::path& path);

  /// Canonical file name for an interval, e.g. "flowtuple-0042.ift".
  static std::string file_name(int interval);
};

}  // namespace iotscope::net
