#include "net/flow_batch.hpp"

namespace iotscope::net {

void FlowBatch::clear() noexcept {
  src.clear();
  dst.clear();
  src_port.clear();
  dst_port.clear();
  proto.clear();
  tcp_flags.clear();
  ttl.clear();
  ip_len.clear();
  pkt_count.clear();
  class_tag.clear();
  tag_recipe = 0;
}

void FlowBatch::reserve(std::size_t n) {
  src.reserve(n);
  dst.reserve(n);
  src_port.reserve(n);
  dst_port.reserve(n);
  proto.reserve(n);
  tcp_flags.reserve(n);
  ttl.reserve(n);
  ip_len.reserve(n);
  pkt_count.reserve(n);
}

void FlowBatch::resize(std::size_t n) {
  tag_recipe = 0;
  class_tag.clear();
  src.resize(n);
  dst.resize(n);
  src_port.resize(n);
  dst_port.resize(n);
  proto.resize(n);
  tcp_flags.resize(n);
  ttl.resize(n);
  ip_len.resize(n);
  pkt_count.resize(n);
}

void FlowBatch::push_back(const FlowTuple& t) {
  tag_recipe = 0;  // any existing tags no longer cover every record
  src.push_back(t.src);
  dst.push_back(t.dst);
  src_port.push_back(t.src_port);
  dst_port.push_back(t.dst_port);
  proto.push_back(t.protocol);
  tcp_flags.push_back(t.tcp_flags);
  ttl.push_back(t.ttl);
  ip_len.push_back(t.ip_length);
  pkt_count.push_back(t.packet_count);
}

void FlowBatch::append(const FlowBatch& other) {
  tag_recipe = 0;
  class_tag.clear();
  src.insert(src.end(), other.src.begin(), other.src.end());
  dst.insert(dst.end(), other.dst.begin(), other.dst.end());
  src_port.insert(src_port.end(), other.src_port.begin(),
                  other.src_port.end());
  dst_port.insert(dst_port.end(), other.dst_port.begin(),
                  other.dst_port.end());
  proto.insert(proto.end(), other.proto.begin(), other.proto.end());
  tcp_flags.insert(tcp_flags.end(), other.tcp_flags.begin(),
                   other.tcp_flags.end());
  ttl.insert(ttl.end(), other.ttl.begin(), other.ttl.end());
  ip_len.insert(ip_len.end(), other.ip_len.begin(), other.ip_len.end());
  pkt_count.insert(pkt_count.end(), other.pkt_count.begin(),
                   other.pkt_count.end());
}

FlowTuple FlowBatch::row(std::size_t i) const noexcept {
  FlowTuple t;
  t.src = src[i];
  t.dst = dst[i];
  t.src_port = src_port[i];
  t.dst_port = dst_port[i];
  t.protocol = proto[i];
  t.ttl = ttl[i];
  t.tcp_flags = tcp_flags[i];
  t.ip_length = ip_len[i];
  t.packet_count = pkt_count[i];
  return t;
}

std::uint64_t FlowBatch::total_packets() const noexcept {
  std::uint64_t total = 0;
  for (const auto c : pkt_count) total += c;
  return total;
}

std::size_t FlowBatch::resident_bytes() const noexcept {
  return src.capacity() * sizeof(Ipv4Address) +
         dst.capacity() * sizeof(Ipv4Address) +
         src_port.capacity() * sizeof(Port) +
         dst_port.capacity() * sizeof(Port) +
         proto.capacity() * sizeof(Protocol) + tcp_flags.capacity() +
         ttl.capacity() + ip_len.capacity() * sizeof(std::uint16_t) +
         pkt_count.capacity() * sizeof(std::uint64_t) + class_tag.capacity();
}

FlowBatch FlowBatch::from_rows(const HourlyFlows& flows) {
  FlowBatch batch;
  batch.assign_rows(flows);
  return batch;
}

HourlyFlows FlowBatch::to_rows() const {
  HourlyFlows flows;
  flows.interval = interval;
  flows.start_time = start_time;
  flows.records.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) flows.records.push_back(row(i));
  return flows;
}

void FlowBatch::assign_rows(const HourlyFlows& flows) {
  clear();
  interval = flows.interval;
  start_time = flows.start_time;
  reserve(flows.records.size());
  for (const auto& r : flows.records) push_back(r);
}

bool FlowBatch::same_records(const FlowBatch& other) const noexcept {
  return interval == other.interval && start_time == other.start_time &&
         src == other.src && dst == other.dst && src_port == other.src_port &&
         dst_port == other.dst_port && proto == other.proto &&
         tcp_flags == other.tcp_flags && ttl == other.ttl &&
         ip_len == other.ip_len && pkt_count == other.pkt_count;
}

}  // namespace iotscope::net
