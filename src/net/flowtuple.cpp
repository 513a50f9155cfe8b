#include "net/flowtuple.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>

#include "net/flow_batch.hpp"
#include "util/io.hpp"

namespace iotscope::net {

FlowTuple FlowTuple::from_packet(const PacketRecord& p) noexcept {
  FlowTuple t;
  t.src = p.src;
  t.dst = p.dst;
  if (p.protocol == Protocol::Icmp) {
    // corsaro convention: ICMP type/code ride in the port fields.
    t.src_port = p.icmp_type;
    t.dst_port = p.icmp_code;
  } else {
    t.src_port = p.src_port;
    t.dst_port = p.dst_port;
  }
  t.protocol = p.protocol;
  t.ttl = p.ttl;
  t.tcp_flags = p.tcp_flags;
  t.ip_length = p.ip_length;
  t.packet_count = 1;
  return t;
}

std::size_t FlowTupleKeyHash::operator()(const FlowTuple& t) const noexcept {
  // 64-bit mix of the key fields; quality matters because the aggregation
  // map holds millions of entries per hour at full scale.
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  mix((static_cast<std::uint64_t>(t.src.value()) << 32) | t.dst.value());
  mix((static_cast<std::uint64_t>(t.src_port) << 48) |
      (static_cast<std::uint64_t>(t.dst_port) << 32) |
      (static_cast<std::uint64_t>(static_cast<std::uint8_t>(t.protocol))
       << 24) |
      (static_cast<std::uint64_t>(t.ttl) << 16) |
      (static_cast<std::uint64_t>(t.tcp_flags) << 8));
  mix(t.ip_length);
  return static_cast<std::size_t>(h);
}

std::uint64_t HourlyFlows::total_packets() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : records) total += r.packet_count;
  return total;
}

namespace {

/// True for the three protocol values the telescope retains.
bool known_protocol(std::uint8_t proto) noexcept {
  return proto == static_cast<std::uint8_t>(Protocol::Tcp) ||
         proto == static_cast<std::uint8_t>(Protocol::Udp) ||
         proto == static_cast<std::uint8_t>(Protocol::Icmp);
}

/// Header bytes: magic, version, interval, start time, record count.
constexpr std::size_t kHeaderBytes = 4 + 2 + 4 + 8 + 8;

/// Records read_columns() moves per read: 100 KiB, small enough that the
/// buffer comes from the allocator's arena rather than its own mapping.
constexpr std::size_t kChunkRecords = 4096;

/// Validates the header at r (magic, version, the record-count cap),
/// sets batch's interval and start time, and returns the untrusted count.
std::uint64_t decode_header(util::ByteReader& r, FlowBatch& batch) {
  if (r.u32() != FlowTupleCodec::kMagic) {
    throw util::IoError("flowtuple file: bad magic");
  }
  if (r.u16() != FlowTupleCodec::kVersion) {
    throw util::IoError("flowtuple file: unsupported version");
  }
  batch.interval = static_cast<int>(r.u32());
  batch.start_time = static_cast<std::int64_t>(r.u64());
  const std::uint64_t count = r.u64();
  // Sanity cap: an hourly file beyond 1B records is corrupt.
  if (count > (1ULL << 30)) {
    throw util::IoError("flowtuple file: implausible record count");
  }
  return count;
}

/// Fills records [first, first + n) of a batch already sized past them
/// from the n packed records at b; throws on an unknown protocol.
void decode_records(const unsigned char* b, std::size_t n, std::size_t first,
                    FlowBatch& batch) {
  // Plain pointers: the byte-column stores may alias anything, so
  // indexing through the vectors would reload their data pointers after
  // every record.
  Ipv4Address* src = batch.src.data() + first;
  Ipv4Address* dst = batch.dst.data() + first;
  Port* src_port = batch.src_port.data() + first;
  Port* dst_port = batch.dst_port.data() + first;
  Protocol* proto = batch.proto.data() + first;
  std::uint8_t* ttl = batch.ttl.data() + first;
  std::uint8_t* tcp_flags = batch.tcp_flags.data() + first;
  std::uint16_t* ip_len = batch.ip_len.data() + first;
  std::uint64_t* pkt_count = batch.pkt_count.data() + first;
  for (std::size_t i = 0; i < n; ++i, b += FlowTupleCodec::kRecordBytes) {
    if (!known_protocol(b[12])) {
      throw util::IoError("flowtuple file: unknown protocol value");
    }
    src[i] = Ipv4Address(util::load_le32(b + 0));
    dst[i] = Ipv4Address(util::load_le32(b + 4));
    src_port[i] = util::load_le16(b + 8);
    dst_port[i] = util::load_le16(b + 10);
    proto[i] = static_cast<Protocol>(b[12]);
    ttl[i] = b[13];
    tcp_flags[i] = b[14];
    ip_len[i] = util::load_le16(b + 15);
    pkt_count[i] = util::load_le64(b + 17);
  }
}

}  // namespace

void FlowTupleCodec::encode(std::string& out, const HourlyFlows& flows) {
  out.reserve(out.size() + kHeaderBytes + flows.records.size() * kRecordBytes);
  util::ByteWriter w(out);
  w.u32(kMagic);
  w.u16(kVersion);
  w.u32(static_cast<std::uint32_t>(flows.interval));
  w.u64(static_cast<std::uint64_t>(flows.start_time));
  w.u64(flows.records.size());
  for (const auto& r : flows.records) {
    unsigned char b[kRecordBytes];
    util::store_le32(b + 0, r.src.value());
    util::store_le32(b + 4, r.dst.value());
    util::store_le16(b + 8, r.src_port);
    util::store_le16(b + 10, r.dst_port);
    b[12] = static_cast<std::uint8_t>(r.protocol);
    b[13] = r.ttl;
    b[14] = r.tcp_flags;
    util::store_le16(b + 15, r.ip_length);
    util::store_le64(b + 17, r.packet_count);
    w.bytes(b, sizeof b);
  }
}

void FlowTupleCodec::encode(std::string& out, const FlowBatch& batch) {
  const std::size_t n = batch.size();
  out.reserve(out.size() + kHeaderBytes + n * kRecordBytes);
  util::ByteWriter w(out);
  w.u32(kMagic);
  w.u16(kVersion);
  w.u32(static_cast<std::uint32_t>(batch.interval));
  w.u64(static_cast<std::uint64_t>(batch.start_time));
  w.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char b[kRecordBytes];
    util::store_le32(b + 0, batch.src[i].value());
    util::store_le32(b + 4, batch.dst[i].value());
    util::store_le16(b + 8, batch.src_port[i]);
    util::store_le16(b + 10, batch.dst_port[i]);
    b[12] = static_cast<std::uint8_t>(batch.proto[i]);
    b[13] = batch.ttl[i];
    b[14] = batch.tcp_flags[i];
    util::store_le16(b + 15, batch.ip_len[i]);
    util::store_le64(b + 17, batch.pkt_count[i]);
    w.bytes(b, sizeof b);
  }
}

HourlyFlows FlowTupleCodec::decode(std::string_view blob) {
  return decode_columns(blob).to_rows();
}

FlowBatch FlowTupleCodec::decode_columns(std::string_view blob) {
  util::ByteReader r(blob);
  FlowBatch batch;
  const std::uint64_t count = decode_header(r, batch);
  // The whole blob is in memory, so the untrusted count is clamped to
  // what the remaining bytes can actually yield: a corrupt header cannot
  // force an allocation beyond the blob's own size. Every column is
  // sized once to that and filled by index.
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining() / kRecordBytes));
  batch.resize(n);
  decode_records(r.bytes(n * kRecordBytes), n, 0, batch);
  // Records the count names beyond the clamp are missing from the blob:
  // the cursor raises its truncation error for the first of them.
  if (count > n) r.bytes(kRecordBytes);
  return batch;
}

FlowBatch FlowTupleCodec::read_columns(const std::filesystem::path& path) {
  util::FileReader file(path);
  unsigned char header[kHeaderBytes];
  util::ByteReader r(header, file.read_some(header, sizeof header));
  FlowBatch batch;
  const std::uint64_t count = decode_header(r, batch);
  // Same clamp as decode_columns(), against the bytes the file holds
  // past its header.
  const std::uint64_t body =
      file.size() > kHeaderBytes ? file.size() - kHeaderBytes : 0;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, body / kRecordBytes));
  batch.resize(n);
  const auto chunk = std::make_unique_for_overwrite<unsigned char[]>(
      std::min(n, kChunkRecords) * kRecordBytes);
  for (std::size_t first = 0; first < n; first += kChunkRecords) {
    const std::size_t m = std::min(n - first, kChunkRecords);
    file.read_exact(chunk.get(), m * kRecordBytes);
    decode_records(chunk.get(), m, first, batch);
  }
  // The file ends before the records the count names beyond the clamp:
  // the same truncation error the in-memory cursor raises.
  if (count > n) throw util::IoError("unexpected end of stream");
  return batch;
}

void FlowTupleCodec::write(std::ostream& os, const HourlyFlows& flows) {
  std::string blob;
  encode(blob, flows);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

HourlyFlows FlowTupleCodec::read(std::istream& is) {
  // Slurp the remaining stream and block-decode. Like the per-field
  // reader this replaced, bytes after the declared records are left
  // unconsumed logically (they are ignored), and every truncation or
  // corruption failure is a util::IoError.
  std::string blob((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  return decode(blob);
}

HourlyFlows FlowTupleCodec::read_unbuffered(std::istream& is) {
  if (util::read_u32(is) != kMagic) {
    throw util::IoError("flowtuple file: bad magic");
  }
  if (util::read_u16(is) != kVersion) {
    throw util::IoError("flowtuple file: unsupported version");
  }
  HourlyFlows flows;
  flows.interval = static_cast<int>(util::read_u32(is));
  flows.start_time = static_cast<std::int64_t>(util::read_u64(is));
  const std::uint64_t count = util::read_u64(is);
  // Sanity cap: an hourly file beyond 1B records is corrupt.
  if (count > (1ULL << 30)) {
    throw util::IoError("flowtuple file: implausible record count");
  }
  // The count is untrusted until the records actually decode: reserve at
  // most 1M slots (~32 MB) upfront so a corrupt header can't force a
  // multi-gigabyte allocation before the first short read throws, and let
  // the vector grow normally past that.
  flows.records.reserve(
      static_cast<std::size_t>(std::min(count, std::uint64_t{1} << 20)));
  for (std::uint64_t i = 0; i < count; ++i) {
    FlowTuple r;
    r.src = Ipv4Address(util::read_u32(is));
    r.dst = Ipv4Address(util::read_u32(is));
    r.src_port = util::read_u16(is);
    r.dst_port = util::read_u16(is);
    const std::uint8_t proto = util::read_u8(is);
    if (!known_protocol(proto)) {
      throw util::IoError("flowtuple file: unknown protocol value");
    }
    r.protocol = static_cast<Protocol>(proto);
    r.ttl = util::read_u8(is);
    r.tcp_flags = util::read_u8(is);
    r.ip_length = util::read_u16(is);
    r.packet_count = util::read_u64(is);
    flows.records.push_back(r);
  }
  return flows;
}

void FlowTupleCodec::write_file(const std::filesystem::path& path,
                                const HourlyFlows& flows) {
  std::string blob;
  encode(blob, flows);
  util::write_file(path, blob);
}

HourlyFlows FlowTupleCodec::read_file(const std::filesystem::path& path) {
  return read_columns(path).to_rows();
}

std::string FlowTupleCodec::file_name(int interval) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "flowtuple-%04d.ift", interval);
  return buf;
}

}  // namespace iotscope::net
