// Columnar record batches: the structure-of-arrays twin of HourlyFlows.
//
// The analysis pipeline is one long scan over ~141M flowtuple records;
// between layers the records used to travel as array-of-structs
// std::vector<FlowTuple>, so every consumer paid the full 32-byte stride
// to touch the two or three fields it actually reads. A FlowBatch keeps
// one contiguous column per field instead: the decoder fills columns
// straight from the block buffer, the capture engine and synthesizer
// emit batches, the prefetch/study queues hand batches through, and each
// pipeline shard walks only the columns it needs (src for the join,
// pkt_count for tallies, the class_tag byte for the taxonomy switch).
//
// `class_tag` is an optional extra column written by the shared
// classification pass (core::classify_batch): one branchy decode of
// tcp_flags/ICMP types per record, consumed by every downstream analysis
// instead of re-derived per consumer. net/ only stores the bytes; the
// tag encoding is owned by core/classifier.hpp.
//
// The AoS FlowTuple survives as the codec's on-disk record, the unit of
// aggregation keys, and the conversion boundary (row()/from_rows()/
// to_rows()) used by tests and the retained before-variants in bench.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flowtuple.hpp"
#include "net/ipv4.hpp"
#include "net/protocol.hpp"

namespace iotscope::net {

/// One hour of telescope flows as parallel column vectors. All data
/// columns always have equal length; `class_tag` is either empty (not
/// yet classified) or exactly size() long.
struct FlowBatch {
  int interval = 0;             ///< hour index in [0, AnalysisWindow::kHours)
  std::int64_t start_time = 0;  ///< unix time of the hour's start

  std::vector<Ipv4Address> src;
  std::vector<Ipv4Address> dst;
  std::vector<Port> src_port;
  std::vector<Port> dst_port;
  std::vector<Protocol> proto;
  std::vector<std::uint8_t> tcp_flags;
  std::vector<std::uint8_t> ttl;
  std::vector<std::uint16_t> ip_len;
  std::vector<std::uint64_t> pkt_count;
  /// Per-record taxonomy tag (see core::ClassTag); empty until a
  /// classification pass fills it.
  std::vector<std::uint8_t> class_tag;
  /// Opaque fingerprint of the classification options that produced
  /// class_tag (0 = untagged). Owned by core/classifier.hpp; consumers
  /// recompute tags when it does not match their own options, so a
  /// producer tagged under different knobs can never skew a report.
  std::uint8_t tag_recipe = 0;

  std::size_t size() const noexcept { return src.size(); }
  bool empty() const noexcept { return src.empty(); }

  /// Drops all records (and tags) but keeps column capacity, so a batch
  /// reused hour over hour stops allocating once it has seen the
  /// high-water record count.
  void clear() noexcept;

  void reserve(std::size_t n);

  /// Sizes every data column to n records (new ones zeroed) so a decoder
  /// can fill them by index. Tags are dropped, as by push_back().
  void resize(std::size_t n);

  /// Appends one record to every data column (class_tag untouched).
  void push_back(const FlowTuple& t);

  /// Appends all of `other`'s records (the splice step that reassembles
  /// an hour from per-block-range decode tasks; record order is the
  /// concatenation order). Tags are dropped — appending changes the
  /// record set, so any existing class_tag column no longer covers it.
  void append(const FlowBatch& other);

  /// Materializes row i as an AoS FlowTuple (the conversion boundary).
  FlowTuple row(std::size_t i) const noexcept;

  /// ICMP type for row i, carried in the src_port column per the corsaro
  /// convention (see FlowTuple::icmp_type).
  IcmpType icmp_type(std::size_t i) const noexcept {
    return static_cast<IcmpType>(src_port[i]);
  }

  /// Sum of pkt_count over all records.
  std::uint64_t total_packets() const noexcept;

  /// Bytes currently backing the columns (capacity, not size): the
  /// resident footprint a queue holds while the batch is in flight.
  std::size_t resident_bytes() const noexcept;

  /// AoS <-> SoA conversions. assign_rows() reuses column capacity.
  static FlowBatch from_rows(const HourlyFlows& flows);
  HourlyFlows to_rows() const;
  void assign_rows(const HourlyFlows& flows);

  /// Data columns compare element-wise (class_tag excluded: it is a
  /// derived annotation, not part of the record identity).
  bool same_records(const FlowBatch& other) const noexcept;
};

}  // namespace iotscope::net
