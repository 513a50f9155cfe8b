#include "net/flowtuple.hpp"

#include <gtest/gtest.h>

#include "net/flow_batch.hpp"

#include <sstream>

#include "util/io.hpp"
#include "util/rng.hpp"

namespace iotscope::net {
namespace {

FlowTuple random_tuple(util::Rng& rng) {
  FlowTuple t;
  t.src = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  t.dst = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  t.src_port = static_cast<Port>(rng.uniform(0, 65535));
  t.dst_port = static_cast<Port>(rng.uniform(0, 65535));
  const auto r = rng.uniform(0, 2);
  t.protocol = r == 0 ? Protocol::Tcp : (r == 1 ? Protocol::Udp : Protocol::Icmp);
  t.ttl = static_cast<std::uint8_t>(rng.uniform(0, 255));
  t.tcp_flags = static_cast<std::uint8_t>(rng.uniform(0, 63));
  t.ip_length = static_cast<std::uint16_t>(rng.uniform(20, 1500));
  t.packet_count = rng.uniform(1, 1 << 20);
  return t;
}

TEST(FlowTuple, FromPacketCopiesHeaderFields) {
  const auto p = make_tcp_syn(123, Ipv4Address(1), Ipv4Address(2), 4444, 23, 77);
  const auto t = FlowTuple::from_packet(p);
  EXPECT_EQ(t.src, p.src);
  EXPECT_EQ(t.dst, p.dst);
  EXPECT_EQ(t.src_port, 4444);
  EXPECT_EQ(t.dst_port, 23);
  EXPECT_EQ(t.protocol, Protocol::Tcp);
  EXPECT_EQ(t.ttl, 77);
  EXPECT_EQ(t.tcp_flags, kSyn);
  EXPECT_EQ(t.packet_count, 1u);
}

TEST(FlowTuple, IcmpTypeCodeRideInPortFields) {
  const auto p = make_icmp(0, Ipv4Address(1), Ipv4Address(2),
                           IcmpType::DestinationUnreachable, 3);
  const auto t = FlowTuple::from_packet(p);
  EXPECT_EQ(t.src_port,
            static_cast<Port>(IcmpType::DestinationUnreachable));
  EXPECT_EQ(t.dst_port, 3);
  EXPECT_EQ(t.icmp_type(), IcmpType::DestinationUnreachable);
}

TEST(FlowTuple, SameKeyIgnoresPacketCount) {
  util::Rng rng(1);
  auto a = random_tuple(rng);
  auto b = a;
  b.packet_count += 5;
  EXPECT_TRUE(a.same_key(b));
  EXPECT_FALSE(a == b);
  b.dst_port ^= 1;
  EXPECT_FALSE(a.same_key(b));
}

TEST(FlowTuple, HashConsistentWithKeyEqualityProperty) {
  util::Rng rng(2);
  FlowTupleKeyHash hash;
  FlowTupleKeyEq eq;
  for (int i = 0; i < 2000; ++i) {
    auto a = random_tuple(rng);
    auto b = a;
    b.packet_count = a.packet_count + 1;
    ASSERT_TRUE(eq(a, b));
    ASSERT_EQ(hash(a), hash(b));
    auto c = a;
    c.ttl ^= 0x5A;
    ASSERT_FALSE(eq(a, c));
  }
}

TEST(HourlyFlows, TotalPackets) {
  HourlyFlows flows;
  util::Rng rng(3);
  std::uint64_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    auto t = random_tuple(rng);
    expected += t.packet_count;
    flows.records.push_back(t);
  }
  EXPECT_EQ(flows.total_packets(), expected);
}

TEST(FlowTupleCodec, StreamRoundTripProperty) {
  util::Rng rng(4);
  for (int round = 0; round < 20; ++round) {
    HourlyFlows flows;
    flows.interval = static_cast<int>(rng.uniform(0, 142));
    flows.start_time = static_cast<std::int64_t>(rng.uniform(0, 1u << 30));
    const auto n = rng.uniform(0, 500);
    for (std::uint64_t i = 0; i < n; ++i) {
      flows.records.push_back(random_tuple(rng));
    }
    std::stringstream ss;
    FlowTupleCodec::write(ss, flows);
    const auto decoded = FlowTupleCodec::read(ss);
    EXPECT_EQ(decoded.interval, flows.interval);
    EXPECT_EQ(decoded.start_time, flows.start_time);
    ASSERT_EQ(decoded.records.size(), flows.records.size());
    for (std::size_t i = 0; i < flows.records.size(); ++i) {
      EXPECT_EQ(decoded.records[i], flows.records[i]);
    }
  }
}

TEST(FlowTupleCodec, RejectsBadMagic) {
  std::stringstream ss;
  util::write_u32(ss, 0xBADC0DE);
  EXPECT_THROW(FlowTupleCodec::read(ss), util::IoError);
}

TEST(FlowTupleCodec, RejectsWrongVersion) {
  std::stringstream ss;
  util::write_u32(ss, FlowTupleCodec::kMagic);
  util::write_u16(ss, 99);
  EXPECT_THROW(FlowTupleCodec::read(ss), util::IoError);
}

TEST(FlowTupleCodec, RejectsUnknownProtocol) {
  HourlyFlows flows;
  FlowTuple t;
  t.protocol = Protocol::Tcp;
  flows.records.push_back(t);
  std::stringstream ss;
  FlowTupleCodec::write(ss, flows);
  std::string blob = ss.str();
  // Protocol byte offset: 4 magic + 2 version + 4 interval + 8 time +
  // 8 count + (4 + 4 + 2 + 2) record prefix = 38.
  blob[38] = 99;
  std::istringstream corrupted(blob);
  EXPECT_THROW(FlowTupleCodec::read(corrupted), util::IoError);
}

TEST(FlowTupleCodec, RejectsTruncatedStream) {
  HourlyFlows flows;
  util::Rng rng(5);
  for (int i = 0; i < 10; ++i) flows.records.push_back(random_tuple(rng));
  std::stringstream ss;
  FlowTupleCodec::write(ss, flows);
  const std::string blob = ss.str();
  std::istringstream truncated(blob.substr(0, blob.size() - 7));
  EXPECT_THROW(FlowTupleCodec::read(truncated), util::IoError);
}

TEST(FlowTupleCodec, RejectsImplausibleRecordCount) {
  std::stringstream ss;
  util::write_u32(ss, FlowTupleCodec::kMagic);
  util::write_u16(ss, FlowTupleCodec::kVersion);
  util::write_u32(ss, 0);
  util::write_u64(ss, 0);
  util::write_u64(ss, 1ULL << 40);  // absurd record count
  EXPECT_THROW(FlowTupleCodec::read(ss), util::IoError);
}

TEST(FlowTupleCodec, HugeClaimedCountWithNoBodyFailsWithoutHugeReserve) {
  // Regression: a corrupt 14-byte header used to drive
  // records.reserve(count) for any count up to 2^30 (~32 GB of FlowTuples)
  // before the first short read threw. The reserve must now be clamped so
  // this rejects quickly and cheaply.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 30, (std::uint64_t{1} << 30) - 1,
        std::uint64_t{1} << 24}) {
    std::stringstream ss;
    util::write_u32(ss, FlowTupleCodec::kMagic);
    util::write_u16(ss, FlowTupleCodec::kVersion);
    util::write_u32(ss, 7);
    util::write_u64(ss, 1491955200);
    util::write_u64(ss, count);  // header claims records that never follow
    EXPECT_THROW(FlowTupleCodec::read(ss), util::IoError);
  }
}

TEST(FlowTupleCodec, TruncatedCountFieldItselfThrows) {
  // Header cut inside the u64 count field.
  std::stringstream ss;
  util::write_u32(ss, FlowTupleCodec::kMagic);
  util::write_u16(ss, FlowTupleCodec::kVersion);
  util::write_u32(ss, 7);
  util::write_u64(ss, 1491955200);
  util::write_u16(ss, 0xFFFF);  // 2 of the count's 8 bytes
  EXPECT_THROW(FlowTupleCodec::read(ss), util::IoError);
}

TEST(FlowTupleCodec, CountLargerThanBodyThrowsNotSilentlyShortReads) {
  // A file with N records but a header claiming N + 1 must throw, never
  // return a short vector as if it parsed cleanly.
  HourlyFlows flows;
  util::Rng rng(9);
  for (int i = 0; i < 10; ++i) flows.records.push_back(random_tuple(rng));
  std::stringstream ss;
  FlowTupleCodec::write(ss, flows);
  std::string blob = ss.str();
  // Count field lives at offset 4 (magic) + 2 (version) + 4 (interval) +
  // 8 (start_time) = 18, little-endian u64.
  blob[18] = 11;
  std::istringstream overdrawn(blob);
  EXPECT_THROW(FlowTupleCodec::read(overdrawn), util::IoError);
}

// --- Block codec vs reference istream decoder parity -------------------
//
// The block path (encode/decode over a contiguous buffer) replaced the
// per-field istream path. read_unbuffered() keeps the old decoder
// verbatim; these tests pin that the two implementations agree on every
// byte produced and on every accept/reject decision.

TEST(FlowTupleCodec, BlockAndStreamPathsProduceIdenticalBytes) {
  util::Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    HourlyFlows flows;
    flows.interval = static_cast<int>(rng.uniform(0, 142));
    flows.start_time = static_cast<std::int64_t>(rng.uniform(0, 1u << 30));
    const auto n = rng.uniform(0, 300);
    for (std::uint64_t i = 0; i < n; ++i) {
      flows.records.push_back(random_tuple(rng));
    }

    std::string encoded;
    FlowTupleCodec::encode(encoded, flows);
    std::ostringstream os;
    FlowTupleCodec::write(os, flows);
    ASSERT_EQ(encoded, os.str());
    ASSERT_EQ(encoded.size(), 26 + n * FlowTupleCodec::kRecordBytes);

    const auto block = FlowTupleCodec::decode(encoded);
    std::istringstream is(encoded);
    const auto reference = FlowTupleCodec::read_unbuffered(is);
    ASSERT_EQ(block.interval, reference.interval);
    ASSERT_EQ(block.start_time, reference.start_time);
    ASSERT_EQ(block.records.size(), reference.records.size());
    for (std::size_t i = 0; i < block.records.size(); ++i) {
      ASSERT_EQ(block.records[i], reference.records[i]);
    }
  }
}

TEST(FlowTupleCodec, TruncationParityAtEveryPrefix) {
  HourlyFlows flows;
  util::Rng rng(12);
  flows.interval = 7;
  flows.start_time = 1491955200;
  for (int i = 0; i < 5; ++i) flows.records.push_back(random_tuple(rng));
  std::string blob;
  FlowTupleCodec::encode(blob, flows);

  // Every proper prefix must make the block and istream decoders reach
  // the same verdict: identical records on accept, util::IoError on
  // reject — never a std exception, never a silent short read.
  for (std::size_t len = 0; len <= blob.size(); ++len) {
    const std::string prefix = blob.substr(0, len);
    HourlyFlows block, reference;
    bool block_ok = true, reference_ok = true;
    try {
      block = FlowTupleCodec::decode(prefix);
    } catch (const util::IoError&) {
      block_ok = false;
    }
    try {
      std::istringstream is(prefix);
      reference = FlowTupleCodec::read_unbuffered(is);
    } catch (const util::IoError&) {
      reference_ok = false;
    }
    ASSERT_EQ(block_ok, reference_ok) << "prefix length " << len;
    if (block_ok) {
      ASSERT_EQ(block.records.size(), reference.records.size());
      for (std::size_t i = 0; i < block.records.size(); ++i) {
        ASSERT_EQ(block.records[i], reference.records[i]) << "prefix " << len;
      }
    }
  }
}

TEST(FlowTupleCodec, ProtocolCorruptionParity) {
  HourlyFlows flows;
  util::Rng rng(13);
  for (int i = 0; i < 3; ++i) flows.records.push_back(random_tuple(rng));
  std::string blob;
  FlowTupleCodec::encode(blob, flows);
  // Corrupt the protocol byte of each record in turn (offset 26 + 25*i +
  // 12) and require both decoders to reject with util::IoError.
  for (std::size_t rec = 0; rec < flows.records.size(); ++rec) {
    std::string corrupt = blob;
    corrupt[26 + FlowTupleCodec::kRecordBytes * rec + 12] = 99;
    EXPECT_THROW(FlowTupleCodec::decode(corrupt), util::IoError);
    std::istringstream is(corrupt);
    EXPECT_THROW(FlowTupleCodec::read_unbuffered(is), util::IoError);
  }
}

// --- Columnar (FlowBatch) codec vs row codec parity --------------------
//
// The SoA encode/decode pair must be indistinguishable from the AoS pair
// on the wire: identical bytes out, identical accept/reject verdicts in.

TEST(FlowTupleCodec, ColumnarEncodeMatchesRowEncodeByteForByte) {
  util::Rng rng(21);
  for (int round = 0; round < 10; ++round) {
    HourlyFlows flows;
    flows.interval = static_cast<int>(rng.uniform(0, 142));
    flows.start_time = static_cast<std::int64_t>(rng.uniform(0, 1u << 30));
    const auto n = rng.uniform(0, 300);
    for (std::uint64_t i = 0; i < n; ++i) {
      flows.records.push_back(random_tuple(rng));
    }
    std::string rows_bytes;
    FlowTupleCodec::encode(rows_bytes, flows);
    std::string batch_bytes;
    FlowTupleCodec::encode(batch_bytes, FlowBatch::from_rows(flows));
    ASSERT_EQ(batch_bytes, rows_bytes) << "round " << round;
  }
}

TEST(FlowTupleCodec, DecodeColumnsMatchesDecodeRows) {
  util::Rng rng(22);
  HourlyFlows flows;
  flows.interval = 55;
  flows.start_time = 1491955200;
  for (int i = 0; i < 200; ++i) flows.records.push_back(random_tuple(rng));
  std::string blob;
  FlowTupleCodec::encode(blob, flows);

  const FlowBatch batch = FlowTupleCodec::decode_columns(blob);
  const HourlyFlows rows = FlowTupleCodec::decode(blob);
  EXPECT_EQ(batch.interval, rows.interval);
  EXPECT_EQ(batch.start_time, rows.start_time);
  EXPECT_TRUE(batch.same_records(FlowBatch::from_rows(rows)));
  // And the batch converts back to the exact original records.
  const HourlyFlows back = batch.to_rows();
  ASSERT_EQ(back.records.size(), flows.records.size());
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    ASSERT_EQ(back.records[i], flows.records[i]);
  }
}

TEST(FlowTupleCodec, DecodeColumnsTruncationParity) {
  HourlyFlows flows;
  util::Rng rng(23);
  flows.interval = 7;
  flows.start_time = 1491955200;
  for (int i = 0; i < 5; ++i) flows.records.push_back(random_tuple(rng));
  std::string blob;
  FlowTupleCodec::encode(blob, flows);

  for (std::size_t len = 0; len <= blob.size(); ++len) {
    const std::string prefix = blob.substr(0, len);
    FlowBatch batch;
    HourlyFlows rows;
    bool batch_ok = true, rows_ok = true;
    try {
      batch = FlowTupleCodec::decode_columns(prefix);
    } catch (const util::IoError&) {
      batch_ok = false;
    }
    try {
      rows = FlowTupleCodec::decode(prefix);
    } catch (const util::IoError&) {
      rows_ok = false;
    }
    ASSERT_EQ(batch_ok, rows_ok) << "prefix length " << len;
    if (batch_ok) {
      ASSERT_TRUE(batch.same_records(FlowBatch::from_rows(rows)))
          << "prefix " << len;
    }
  }
}

TEST(FlowTupleCodec, DecodeColumnsRejectsCorruptHeadersAndProtocols) {
  HourlyFlows flows;
  util::Rng rng(24);
  for (int i = 0; i < 3; ++i) flows.records.push_back(random_tuple(rng));
  std::string blob;
  FlowTupleCodec::encode(blob, flows);

  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(FlowTupleCodec::decode_columns(bad_magic), util::IoError);

  std::string bad_version = blob;
  bad_version[4] = 9;
  EXPECT_THROW(FlowTupleCodec::decode_columns(bad_version), util::IoError);

  for (std::size_t rec = 0; rec < flows.records.size(); ++rec) {
    std::string corrupt = blob;
    corrupt[26 + FlowTupleCodec::kRecordBytes * rec + 12] = 99;
    EXPECT_THROW(FlowTupleCodec::decode_columns(corrupt), util::IoError);
  }
}

TEST(FlowTupleCodec, ReadColumnsMatchesDecodeColumnsAcrossChunks) {
  // 10,000 records span two full 4,096-record read chunks and a partial
  // third; the file path must fill every column exactly as the in-memory
  // decoder does.
  util::TempDir dir;
  util::Rng rng(31);
  HourlyFlows flows;
  flows.interval = 7;
  flows.start_time = 1491955200;
  for (int i = 0; i < 10000; ++i) flows.records.push_back(random_tuple(rng));
  std::string blob;
  FlowTupleCodec::encode(blob, flows);
  const auto path = dir.path() / FlowTupleCodec::file_name(flows.interval);
  util::write_file(path, blob);

  const FlowBatch from_file = FlowTupleCodec::read_columns(path);
  const FlowBatch from_blob = FlowTupleCodec::decode_columns(blob);
  EXPECT_EQ(from_file.interval, flows.interval);
  EXPECT_EQ(from_file.start_time, flows.start_time);
  EXPECT_TRUE(from_file.same_records(from_blob));
  EXPECT_TRUE(from_file.class_tag.empty());
  EXPECT_EQ(from_file.tag_recipe, 0u);

  // A protocol error in the last chunk and a truncation inside it carry
  // the in-memory decoder's messages.
  const auto expect_same_error = [&](const std::string& bytes) {
    util::write_file(path, bytes);
    std::string from_memory;
    try {
      FlowTupleCodec::decode_columns(bytes);
    } catch (const util::IoError& e) {
      from_memory = e.what();
    }
    ASSERT_FALSE(from_memory.empty());
    try {
      FlowTupleCodec::read_columns(path);
      ADD_FAILURE() << "read_columns accepted: " << from_memory;
    } catch (const util::IoError& e) {
      EXPECT_EQ(std::string(e.what()), from_memory);
    }
  };
  std::string bad_proto = blob;
  bad_proto[26 + 9000 * FlowTupleCodec::kRecordBytes + 12] = 2;
  expect_same_error(bad_proto);
  expect_same_error(blob.substr(0, blob.size() - 1));
}

TEST(FlowTupleCodec, FileRoundTripAndName) {
  util::TempDir dir;
  HourlyFlows flows;
  flows.interval = 42;
  flows.start_time = 1234;
  util::Rng rng(6);
  for (int i = 0; i < 50; ++i) flows.records.push_back(random_tuple(rng));
  const auto path = dir.path() / FlowTupleCodec::file_name(flows.interval);
  EXPECT_EQ(path.filename().string(), "flowtuple-0042.ift");
  FlowTupleCodec::write_file(path, flows);
  const auto loaded = FlowTupleCodec::read_file(path);
  EXPECT_EQ(loaded.records.size(), flows.records.size());
  EXPECT_EQ(loaded.total_packets(), flows.total_packets());
  EXPECT_THROW(FlowTupleCodec::read_file(dir.path() / "nope.ift"),
               util::IoError);
}

}  // namespace
}  // namespace iotscope::net
