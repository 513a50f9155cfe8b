#include "core/pipeline.hpp"

#include <algorithm>
#include <bitset>
#include <unordered_map>
#include <utility>

#include "core/fingerprint.hpp"
#include "util/timebase.hpp"
#include "workload/spec.hpp"

namespace iotscope::core {

namespace {

constexpr int kHours = util::AnalysisWindow::kHours;

/// Element-wise accumulation of one hourly series into another. All
/// pipeline series carry integral packet/device counts < 2^53, so the
/// double sums are exact and the merge order cannot change the result.
void add_series(analysis::HourlySeries& into,
                const analysis::HourlySeries& from) {
  for (int h = 0; h < kHours; ++h) {
    const double v = from.at(h);
    if (v != 0.0) into.add(h, v);
  }
}

/// Commutative-exact merge of two per-device ledgers (integral sums,
/// min/max intervals, OR'd day mask) — the reduction that makes the
/// stealing scheduler's partials collapse to the sequential result.
void merge_traffic(DeviceTraffic& into, const DeviceTraffic& from) {
  if (from.first_interval >= 0 &&
      (into.first_interval < 0 || from.first_interval < into.first_interval)) {
    into.first_interval = from.first_interval;
  }
  if (from.last_interval > into.last_interval) {
    into.last_interval = from.last_interval;
  }
  into.packets += from.packets;
  for (std::size_t s = 0; s < into.scan_by_service.size(); ++s) {
    into.scan_by_service[s] += from.scan_by_service[s];
  }
  into.tcp_scan += from.tcp_scan;
  into.tcp_backscatter += from.tcp_backscatter;
  into.icmp_scan += from.icmp_scan;
  into.icmp_backscatter += from.icmp_backscatter;
  into.udp += from.udp;
  into.tcp_other += from.tcp_other;
  into.icmp_other += from.icmp_other;
  into.days_active_mask |= from.days_active_mask;
}

/// The same merge for two partials of one unknown source (a hot profile
/// and the frozen ones evicted from it): summed tallies, min first / max
/// last interval.
void merge_profile(UnknownSourceProfile& into,
                   const UnknownSourceProfile& from) {
  into.packets += from.packets;
  into.tcp_syn_packets += from.tcp_syn_packets;
  into.iot_port_packets += from.iot_port_packets;
  if (from.first_interval >= 0 &&
      (into.first_interval < 0 || from.first_interval < into.first_interval)) {
    into.first_interval = from.first_interval;
  }
  if (from.last_interval > into.last_interval) {
    into.last_interval = from.last_interval;
  }
}

/// merged_position_ value of a device without a merged ledger.
constexpr std::uint32_t kNotMerged = ~0u;

// ---------------------------------------------------------------------
// Record access policies for the shard walk. The shard loop is written
// once against this accessor surface; which memory it reads — and when
// classification happens — is the policy:
//
//  * BatchView — the production path: contiguous FlowBatch columns plus
//    the tag column the coordinator filled in one up-front pass, so
//    cls() is a byte load.
//  * RowsView — the retained pre-batch path: AoS FlowTuple records,
//    classify at every point of use (the historical per-consumer cost).
//    Kept alive for the bench before-variant and the equivalence test.

/// Columnar accessors over a FlowBatch and its precomputed tag column.
/// Holds the raw column pointers (not the batch) and is passed by value:
/// the pointers live in registers across the shard walk's opaque calls
/// instead of being re-derived from the vectors after each one.
struct BatchView {
  /// Columns are dense, so the shard walk can read future source IPs for
  /// free and prefetch the inventory join ahead.
  static constexpr bool kPrefetchJoin = true;

  const net::Ipv4Address* src_col;
  const net::Ipv4Address* dst_col;
  const net::Port* dst_port_col;
  const net::Protocol* proto_col;
  const std::uint64_t* pkt_col;
  const ClassTag* tag_col;
  std::size_t count;

  BatchView(const net::FlowBatch& batch,
            const std::vector<ClassTag>& tags) noexcept
      : src_col(batch.src.data()),
        dst_col(batch.dst.data()),
        dst_port_col(batch.dst_port.data()),
        proto_col(batch.proto.data()),
        pkt_col(batch.pkt_count.data()),
        tag_col(tags.data()),
        count(batch.size()) {}

  std::size_t size() const noexcept { return count; }
  net::Ipv4Address src(std::size_t i) const noexcept { return src_col[i]; }
  std::uint32_t dst(std::size_t i) const noexcept { return dst_col[i].value(); }
  net::Port dst_port(std::size_t i) const noexcept { return dst_port_col[i]; }
  net::Protocol proto(std::size_t i) const noexcept { return proto_col[i]; }
  std::uint64_t packets(std::size_t i) const noexcept { return pkt_col[i]; }
  ClassTag cls(std::size_t i) const noexcept { return tag_col[i]; }
};

/// AoS accessors over HourlyFlows records; cls() re-derives the taxonomy
/// from the record's flags on every call.
struct RowsView {
  /// The pre-batch walk stays exactly as it was (no look-ahead): this
  /// view is the before-variant the batch path is measured against.
  static constexpr bool kPrefetchJoin = false;

  const net::FlowTuple* records;
  std::size_t count;
  const TaxonomyOptions* taxonomy;

  RowsView(const net::HourlyFlows& flows,
           const TaxonomyOptions& options) noexcept
      : records(flows.records.data()),
        count(flows.records.size()),
        taxonomy(&options) {}

  std::size_t size() const noexcept { return count; }
  net::Ipv4Address src(std::size_t i) const noexcept { return records[i].src; }
  std::uint32_t dst(std::size_t i) const noexcept {
    return records[i].dst.value();
  }
  net::Port dst_port(std::size_t i) const noexcept {
    return records[i].dst_port;
  }
  net::Protocol proto(std::size_t i) const noexcept {
    return records[i].protocol;
  }
  std::uint64_t packets(std::size_t i) const noexcept {
    return records[i].packet_count;
  }
  ClassTag cls(std::size_t i) const noexcept {
    const net::FlowTuple& r = records[i];
    return classify_tag(r.protocol, r.tcp_flags, r.src_port, *taxonomy);
  }
};

}  // namespace

/// One worker's accumulator. Under the static scheduler each state
/// receives exactly one source-keyed partition bucket, so source-keyed
/// state is disjoint across states; under the stealing scheduler a state
/// receives whatever morsels its worker claimed, so the same source (and
/// the same device) may accumulate into several states. Every merged
/// quantity is therefore commutative-exact — integral sums, min/max,
/// bitwise OR, and set unions — and the fan-in/finalize reduction walks
/// states in fixed order: the disjoint layouts are just the special case
/// where each key appears once, which is what keeps the three schedules
/// byte-identical.
///
/// The per-record containers are flat open-addressing tables
/// (util::FlatSet/FlatMap): inserts never allocate once a table reaches
/// its high-water capacity and the per-hour scratch sets clear by epoch
/// bump, so steady-state observe() performs zero heap allocations per
/// record. Cross-hour per-device maps (the victim series) stay
/// node-based — they are keyed per device, not per record, and
/// consolidate() merges them by element-wise addition.
///
/// A lane holds only what it accumulated since the last consolidate(),
/// which folds it into the merged state and clears it: the lanes are the
/// set of what changed since the previous snapshot.
struct AnalysisPipeline::ShardState {
  /// Sentinel for "no record seen yet" — larger than any real
  /// ((observe sequence << 32) | record index) stream position.
  static constexpr std::uint64_t kNeverSeen = ~0ULL;

  /// A device ledger plus its first sighting in the observation stream:
  /// the minimum ((observe-call sequence << 32) | record index) over the
  /// records THIS state processed, with the class and packet count of
  /// that minimum record. Min-tracked per record (not set at creation)
  /// because a stealing worker can walk a device's records out of index
  /// order; consolidate() takes the min across states to rebuild the
  /// sequential discovery order.
  struct LedgerSlot {
    DeviceTraffic traffic;
    std::uint64_t first_seen = kNeverSeen;
    FlowClass first_cls = FlowClass::TcpScan;
    std::uint64_t first_n = 0;
  };

  // ---- per-device ledgers ----
  util::FlatMap<std::uint32_t, std::uint32_t> ledger_index;
  std::vector<LedgerSlot> ledgers;

  // ---- additive report-level tallies ----
  std::uint64_t total_packets = 0;
  std::uint64_t unattributed_packets = 0;
  ByRealm<std::uint64_t> tcp_packets{};
  ByRealm<std::uint64_t> udp_packets{};
  ByRealm<std::uint64_t> icmp_packets{};
  ByRealm<analysis::HourlySeries> udp_packet_series;
  ByRealm<analysis::HourlySeries> scan_packet_series;
  ByRealm<analysis::HourlySeries> backscatter_series;

  // ---- UDP per-port totals and distinct-device tracking ----
  // Distinct (port, device) membership lives in the pair set; the
  // per-port device counts grow in consolidate() with each pair the
  // merged set did not hold yet (a per-state insert-gated increment would
  // double-count devices split across stealing partials or epochs).
  std::array<std::uint64_t, 65536> udp_port_packets{};
  std::array<std::uint32_t, 65536> udp_port_devices{};
  util::FlatSet<std::uint64_t> udp_port_device_pairs;
  std::bitset<65536> udp_ports_seen;

  // ---- TCP scanning per named service (spec row index) ----
  std::vector<std::uint64_t> service_packets;
  std::vector<std::uint64_t> service_consumer_packets;
  util::FlatSet<std::uint64_t> service_device_pairs;
  std::vector<std::size_t> service_consumer_devices;
  std::vector<std::size_t> service_cps_devices;
  std::vector<analysis::HourlySeries> service_series;

  // ---- per-victim hourly backscatter (devices with backscatter only) ----
  std::unordered_map<std::uint32_t, std::vector<double>> victim_series;

  // ---- per-observe-call scratch, read by the coordinator at fan-in ----
  // (index 0 = consumer realm, 1 = CPS). The flat sets clear by epoch
  // bump (O(1)) and keep their high-water capacity across hours.
  util::FlatSet<std::uint32_t> hour_udp_dsts[2];
  util::FlatSet<std::uint32_t> hour_scan_dsts[2];
  std::bitset<65536> hour_udp_ports[2];
  std::bitset<65536> hour_scan_ports[2];
  util::FlatSet<std::uint32_t> hour_scanners;
  util::FlatMap<std::uint32_t, UnknownHourTally> unknown_hour;
  /// Devices whose ledger was created during the current observe call —
  /// first-sighting candidates the coordinator dedups globally.
  std::vector<std::uint32_t> hour_new_devices;

  explicit ShardState(std::size_t service_count) {
    service_packets.resize(service_count, 0);
    service_consumer_packets.resize(service_count, 0);
    service_consumer_devices.resize(service_count, 0);
    service_cps_devices.resize(service_count, 0);
    service_series.resize(service_count);
  }

  /// Resets the per-observe-call scratch. Called once per state per
  /// observe() by the coordinator — observe() itself is purely additive,
  /// because the stealing scheduler invokes it once per morsel.
  void begin_hour() {
    for (int realm = 0; realm < 2; ++realm) {
      hour_udp_dsts[realm].clear();
      hour_scan_dsts[realm].clear();
      hour_udp_ports[realm].reset();
      hour_scan_ports[realm].reset();
    }
    hour_scanners.clear();
    unknown_hour.clear();
    hour_new_devices.clear();
  }

  /// Drops every cumulative partial once consolidate() has folded it.
  /// The flat tables keep their capacity, so refilling them allocates
  /// nothing up to the previous epoch's high-water mark.
  void clear_partials() {
    ledger_index.clear();
    ledgers.clear();
    total_packets = 0;
    unattributed_packets = 0;
    tcp_packets = {};
    udp_packets = {};
    icmp_packets = {};
    udp_packet_series = {};
    scan_packet_series = {};
    backscatter_series = {};
    udp_port_packets.fill(0);
    udp_port_device_pairs.clear();
    udp_ports_seen.reset();
    std::fill(service_packets.begin(), service_packets.end(), 0);
    std::fill(service_consumer_packets.begin(), service_consumer_packets.end(),
              0);
    service_device_pairs.clear();
    for (auto& series : service_series) series = {};
    victim_series.clear();
  }

  LedgerSlot& ledger_for(std::uint32_t device) {
    if (const std::uint32_t* existing = ledger_index.find(device)) {
      return ledgers[*existing];
    }
    LedgerSlot slot;
    slot.traffic.device = device;
    const auto index = static_cast<std::uint32_t>(ledgers.size());
    ledgers.push_back(std::move(slot));
    ledger_index.insert(device, index);
    return ledgers[index];
  }

  /// Walks a slice of one hour's records (indices == nullptr walks
  /// [0, count) of the view directly) through every analysis consumer.
  /// The View policy decides the record layout (columns vs AoS structs)
  /// and where the taxonomy tag comes from (precomputed column vs per-use
  /// classification); the accumulation logic is identical either way, so
  /// both instantiations produce the same Report by construction.
  template <typename View>
  void observe(const AnalysisPipeline& pipe, View view, int interval,
               const std::uint32_t* indices, std::size_t count,
               std::uint32_t observe_seq, bool collect_discoveries);
};

template <typename View>
void AnalysisPipeline::ShardState::observe(
    const AnalysisPipeline& pipe, const View view, int interval,
    const std::uint32_t* indices, std::size_t count,
    std::uint32_t observe_seq, bool collect_discoveries) {
  const int h = interval;
  const int day = util::AnalysisWindow::day_of_interval(h);
  const inventory::IoTDeviceDatabase& db = *pipe.db_;

  for (std::size_t k = 0; k < count; ++k) {
    const auto record_idx =
        indices ? indices[k] : static_cast<std::uint32_t>(k);
    if constexpr (View::kPrefetchJoin) {
      // Hide the inventory join's probe latency: hint the slot for the
      // source a handful of records ahead (far enough to beat a memory
      // round-trip, near enough to still be cached on arrival).
      constexpr std::size_t kJoinLookahead = 16;
      if (k + kJoinLookahead < count) {
        const auto ahead = indices ? indices[k + kJoinLookahead]
                                   : static_cast<std::uint32_t>(k + kJoinLookahead);
        db.prefetch(view.src(ahead));
      }
    }
    const net::Ipv4Address src = view.src(record_idx);
    const std::uint64_t n = view.packets(record_idx);
    const inventory::DeviceRecord* device = db.find(src);
    if (device == nullptr) {
      unattributed_packets += n;
      auto& tally = unknown_hour[src.value()];
      tally.packets += n;
      // TcpScan implies the TCP protocol, so the tag alone decides.
      if (tag_class(view.cls(record_idx)) == FlowClass::TcpScan) {
        tally.tcp_syn += n;
      }
      if (view.proto(record_idx) != net::Protocol::Icmp &&
          is_iot_associated_port(view.dst_port(record_idx))) {
        tally.iot_port += n;
      }
      continue;
    }
    const auto device_id = static_cast<std::uint32_t>(
        device - db.devices().data());
    const bool consumer = device->is_consumer();
    const int realm = consumer ? 0 : 1;
    const FlowClass cls = tag_class(view.cls(record_idx));

    LedgerSlot& slot = ledger_for(device_id);
    if (slot.first_seen == kNeverSeen && collect_discoveries) {
      hour_new_devices.push_back(device_id);
    }
    const std::uint64_t stream_pos =
        (static_cast<std::uint64_t>(observe_seq) << 32) | record_idx;
    if (stream_pos < slot.first_seen) {
      slot.first_seen = stream_pos;
      slot.first_cls = cls;
      slot.first_n = n;
    }
    DeviceTraffic& ledger = slot.traffic;
    if (ledger.first_interval < 0 || h < ledger.first_interval) {
      ledger.first_interval = h;
    }
    if (h > ledger.last_interval) ledger.last_interval = h;
    ledger.packets += n;
    ledger.days_active_mask |= static_cast<std::uint8_t>(1u << day);
    total_packets += n;

    switch (cls) {
      case FlowClass::TcpScan: {
        ledger.tcp_scan += n;
        tcp_packets.of(consumer) += n;
        scan_packet_series.of(consumer).add(h, static_cast<double>(n));
        const net::Port port = view.dst_port(record_idx);
        hour_scan_dsts[realm].insert(view.dst(record_idx));
        hour_scan_ports[realm].set(port);
        hour_scanners.insert(device_id);
        // Named-service attribution (Table V / Fig 10).
        int service = pipe.port_to_service_[port];
        if (service < 0) service = pipe.other_service_;
        const auto s = static_cast<std::size_t>(service);
        if (s < ledger.scan_by_service.size()) ledger.scan_by_service[s] += n;
        service_packets[s] += n;
        if (consumer) service_consumer_packets[s] += n;
        service_series[s].add(h, static_cast<double>(n));
        service_device_pairs.insert(
            (static_cast<std::uint64_t>(s) << 32) | device_id);
        break;
      }
      case FlowClass::TcpBackscatter:
      case FlowClass::IcmpBackscatter: {
        if (cls == FlowClass::TcpBackscatter) {
          ledger.tcp_backscatter += n;
          tcp_packets.of(consumer) += n;
        } else {
          ledger.icmp_backscatter += n;
          icmp_packets.of(consumer) += n;
        }
        backscatter_series.of(consumer).add(h, static_cast<double>(n));
        auto [it, inserted] = victim_series.try_emplace(device_id);
        if (inserted) it->second.assign(kHours, 0.0);
        if (h >= 0 && h < kHours) {
          it->second[static_cast<std::size_t>(h)] += static_cast<double>(n);
        }
        break;
      }
      case FlowClass::IcmpScan: {
        ledger.icmp_scan += n;
        icmp_packets.of(consumer) += n;
        break;
      }
      case FlowClass::Udp: {
        ledger.udp += n;
        udp_packets.of(consumer) += n;
        udp_packet_series.of(consumer).add(h, static_cast<double>(n));
        const net::Port port = view.dst_port(record_idx);
        hour_udp_dsts[realm].insert(view.dst(record_idx));
        hour_udp_ports[realm].set(port);
        udp_port_packets[port] += n;
        udp_ports_seen.set(port);
        udp_port_device_pairs.insert(
            (static_cast<std::uint64_t>(port) << 32) | device_id);
        break;
      }
      case FlowClass::TcpOther:
        ledger.tcp_other += n;
        tcp_packets.of(consumer) += n;
        break;
      case FlowClass::IcmpOther:
        ledger.icmp_other += n;
        icmp_packets.of(consumer) += n;
        break;
    }
  }
}

/// One in-flight hour of the Graph scheduler: every buffer the hour's
/// tasks touch before its fan-in, so concurrent hours never share
/// mutable state (shard scratch and the report are only touched from
/// the fence-serialized plan/observe/fan-in tail). Slots are reused
/// round-robin; buffers keep their high-water capacity across hours.
struct AnalysisPipeline::HourSlot {
  net::FlowBatch batch;                  ///< the hour, spliced/moved in
  std::vector<net::FlowBatch> parts;     ///< per-loader decode outputs
  std::vector<HourLoader> loaders;
  std::vector<ClassTag> tags;            ///< recompute target
  const std::vector<ClassTag>* tag_col = nullptr;
  std::vector<std::vector<std::uint32_t>> partition;
  std::vector<Morsel> morsels;
  int interval = 0;
  std::uint32_t seq = 0;                 ///< submission order (merge keys)
  bool collect_discoveries = false;
  AfterHourHook after;
  /// Fence the NEXT hour's plan task depends on; released by this
  /// hour's fan-in `finally`.
  util::TaskScheduler::TaskId fence = util::TaskScheduler::kNoTask;
  /// Whether the plan task got far enough to submit the fan-in. When
  /// fail-fast skips the plan (a decode/classify task of this or any
  /// hour threw), no fan-in exists and the plan's own `finally` must
  /// settle the hour — without this, the skipped hour's fence was never
  /// released and every later hour (plus the credit waiter) deadlocked.
  /// Read only from the plan's `finally`, which runs before the fan-in
  /// can (the gate below), so slot reuse can never race the read.
  bool fanin_submitted = false;
  /// The fan-in's manual-release gate (manual_dependencies = 1 on top
  /// of its morsel dependencies), released by the plan's `finally`.
  /// This orders "plan fully done, including its finally" before the
  /// fan-in — and therefore before finish_hour can recycle this slot.
  util::TaskScheduler::TaskId fanin_gate = util::TaskScheduler::kNoTask;
  std::chrono::steady_clock::time_point begin;  ///< for pipeline.overlap
};

AnalysisPipeline::Obs::Obs()
    : observe(obs::Registry::instance().stage("pipeline.observe")),
      classify(obs::Registry::instance().stage("pipeline.classify")),
      partition(obs::Registry::instance().stage("pipeline.partition")),
      shard(obs::Registry::instance().stage("pipeline.observe.shard")),
      fanin(obs::Registry::instance().stage("pipeline.fanin")),
      finalize(obs::Registry::instance().stage("pipeline.finalize")),
      snapshot(obs::Registry::instance().stage("pipeline.snapshot")),
      merge(obs::Registry::instance().stage("pipeline.merge")),
      hours(obs::Registry::instance().counter("pipeline.hours")),
      records(obs::Registry::instance().counter("pipeline.records")),
      batch_records(
          obs::Registry::instance().counter("pipeline.batch.records")),
      batch_bytes(obs::Registry::instance().counter("pipeline.batch.bytes")),
      morsel_claimed(
          obs::Registry::instance().counter("pipeline.morsel.claimed")),
      morsel_stolen(
          obs::Registry::instance().counter("pipeline.morsel.stolen")),
      shard_skew(obs::Registry::instance().gauge("pipeline.shard.skew")),
      batch_mem(obs::Registry::instance().gauge("pipeline.batch.mem_peak")),
      overlap(obs::Registry::instance().stage("pipeline.overlap")),
      inflight_hours(
          obs::Registry::instance().gauge("pipeline.task.inflight_hours")) {}

AnalysisPipeline::AnalysisPipeline(const inventory::IoTDeviceDatabase& db,
                                   PipelineOptions options)
    : db_(&db), options_(options) {
  const auto& services = workload::scan_services();
  port_to_service_.fill(-1);
  for (std::size_t s = 0; s < services.size(); ++s) {
    for (const auto port : services[s].ports) {
      port_to_service_[port] = static_cast<int>(s);
    }
  }
  other_service_ = workload::scan_service_index("Other");
  report_.scan_service_series.resize(services.size());
  merged_ = std::make_unique<ShardState>(services.size());

  const unsigned threads = util::ThreadPool::resolve(options_.threads);
  shards_.reserve(threads);
  for (unsigned s = 0; s < threads; ++s) {
    shards_.push_back(std::make_unique<ShardState>(services.size()));
  }
  partition_.resize(threads);
  if (options_.scheduler == ShardScheduler::Graph) {
    // The graph scheduler replaces the flat pool entirely — synchronous
    // observe() fans out as a task batch over the same lanes. At one
    // resolved thread the scheduler runs tasks inline on the caller.
    graph_ = std::make_unique<util::TaskScheduler>(threads);
    const unsigned credits = std::max(1u, options_.max_inflight_hours);
    hour_slots_.reserve(credits);
    for (unsigned c = 0; c < credits; ++c) {
      hour_slots_.push_back(std::make_unique<HourSlot>());
    }
    credits_available_ = credits;
  } else if (threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
}

AnalysisPipeline::~AnalysisPipeline() = default;

std::size_t AnalysisPipeline::shard_of(std::uint32_t src) const noexcept {
  // Fibonacci-hash the source so adjacent /24 neighbours spread across
  // shards; the assignment must be stable (it defines the partition).
  const std::uint64_t mixed =
      static_cast<std::uint64_t>(src) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(mixed >> 33) % shards_.size();
}

void AnalysisPipeline::observe(const net::FlowBatch& batch) {
  // Serialize with any in-flight asynchronous hours: the synchronous
  // path reuses coordinator-owned scratch (partition_, tag_scratch_)
  // and must observe a quiescent pipeline.
  drain();
  obs::ScopedTimer observe_timer(obs_.observe);
  obs_.hours.add(1);
  obs_.records.add(batch.size());
  obs_.batch_records.add(batch.size());
  obs_.batch_bytes.add(batch.size() * net::FlowTupleCodec::kRecordBytes);

  // The shared classification pass: one branchy decode of tcp_flags/ICMP
  // types per record, written to a tag column every shard consumer
  // reads. A batch that already carries tags stamped with *this
  // pipeline's* taxonomy recipe (tag once where the batch is born —
  // study producer thread, pre-tagged corpora) is consumed as-is; any
  // other recipe, including untagged, is classified here so foreign
  // options can never skew the report.
  const std::vector<ClassTag>* tags = &batch.class_tag;
  if (batch.tag_recipe != tag_recipe_for(options_.taxonomy) ||
      batch.class_tag.size() != batch.size()) {
    obs::ScopedTimer classify_timer(obs_.classify);
    classify_batch(batch, options_.taxonomy, tag_scratch_);
    tags = &tag_scratch_;
  }
  observe_view(BatchView(batch, *tags), batch.interval);
}

void AnalysisPipeline::observe(const net::HourlyFlows& flows) {
  batch_scratch_.assign_rows(flows);
  observe(batch_scratch_);
}

void AnalysisPipeline::observe_aos(const net::HourlyFlows& flows) {
  drain();
  obs::ScopedTimer observe_timer(obs_.observe);
  obs_.hours.add(1);
  obs_.records.add(flows.records.size());
  observe_view(RowsView(flows, options_.taxonomy), flows.interval);
}

void AnalysisPipeline::observe_async(net::FlowBatch batch,
                                     AfterHourHook after) {
  if (!graph_) {
    // Synchronous degeneration: one code path for every scheduler.
    observe(batch);
    if (after) after(batch, true);
    return;
  }
  submit_hour(std::move(batch), {}, std::move(after));
}

void AnalysisPipeline::observe_async(std::vector<HourLoader> loaders,
                                     AfterHourHook after) {
  if (loaders.empty()) return;  // absent hour
  if (!graph_) {
    net::FlowBatch batch = loaders.front()();
    for (std::size_t p = 1; p < loaders.size(); ++p) {
      batch.append(loaders[p]());
    }
    observe(batch);
    if (after) after(batch, true);
    return;
  }
  submit_hour(net::FlowBatch(), std::move(loaders), std::move(after));
}

void AnalysisPipeline::drain() {
  if (graph_ && !graph_->on_lane()) graph_->wait_idle();
}

void AnalysisPipeline::submit_hour(net::FlowBatch batch,
                                   std::vector<HourLoader> loaders,
                                   AfterHourHook after) {
  using TaskId = util::TaskScheduler::TaskId;

  // Surface a pending failure before queueing more work on top of it.
  if (graph_->failed()) drain();  // throws the recorded error

  // The in-flight-hours credit: bounds resident batch memory and picks
  // the reused slot. Credits return in finish_hour — also on failure —
  // so this wait always makes progress.
  {
    std::unique_lock<std::mutex> lock(credit_mutex_);
    credit_cv_.wait(lock, [this] { return credits_available_ > 0; });
    --credits_available_;
  }

  const std::uint32_t seq = observe_seq_++;
  HourSlot& slot = *hour_slots_[seq % hour_slots_.size()];
  slot.batch = std::move(batch);
  slot.loaders = std::move(loaders);
  slot.tags.clear();
  slot.tag_col = nullptr;
  slot.after = std::move(after);
  slot.seq = seq;
  slot.collect_discoveries = static_cast<bool>(discovery_sink_);
  slot.fanin_submitted = false;
  slot.begin = std::chrono::steady_clock::now();
  obs_.inflight_hours.add(1);

  util::TaskScheduler& g = *graph_;

  // Fence for the NEXT hour, satisfied by this hour's finish_hour.
  util::TaskOptions fence_options;
  fence_options.manual_dependencies = 1;
  const TaskId prev_fence = fence_;
  slot.fence = g.submit([](unsigned) {}, {}, fence_options);
  fence_ = slot.fence;

  // Stage 1: decode parts (compressed block ranges / whole raw file),
  // then splice in part order — concatenation order IS record order,
  // which the first-sighting keys depend on.
  TaskId decode_tail = util::TaskScheduler::kNoTask;
  if (!slot.loaders.empty()) {
    slot.parts.resize(slot.loaders.size());
    std::vector<TaskId> decodes;
    decodes.reserve(slot.loaders.size());
    for (std::size_t p = 0; p < slot.loaders.size(); ++p) {
      decodes.push_back(g.submit(
          [s = &slot, p](unsigned) { s->parts[p] = s->loaders[p](); }));
    }
    decode_tail = g.submit(
        [s = &slot](unsigned) {
          s->batch = std::move(s->parts.front());
          for (std::size_t p = 1; p < s->parts.size(); ++p) {
            s->batch.append(s->parts[p]);
          }
        },
        decodes.data(), decodes.size());
  }

  // Stage 2: the shared classification pass (same recipe guard as the
  // synchronous observe(): foreign or missing tags are recomputed).
  const TaskId classify = g.submit(
      [this, s = &slot](unsigned) {
        s->interval = s->batch.interval;
        obs_.hours.add(1);
        obs_.records.add(s->batch.size());
        obs_.batch_records.add(s->batch.size());
        obs_.batch_bytes.add(s->batch.size() *
                             net::FlowTupleCodec::kRecordBytes);
        s->tag_col = &s->batch.class_tag;
        if (s->batch.tag_recipe != tag_recipe_for(options_.taxonomy) ||
            s->batch.class_tag.size() != s->batch.size()) {
          obs::ScopedTimer timer(obs_.classify);
          classify_batch(s->batch, options_.taxonomy, s->tags);
          s->tag_col = &s->tags;
        }
      },
      {decode_tail});

  // Stage 3: partition + morsel plan, into the slot's own buffers —
  // this is what may run while an earlier hour is still observing.
  const TaskId partition = g.submit(
      [this, s = &slot](unsigned) {
        obs::ScopedTimer timer(obs_.partition);
        const auto n = static_cast<std::uint32_t>(s->batch.size());
        s->partition.resize(shards_.size());
        for (auto& bucket : s->partition) bucket.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
          s->partition[shard_of(s->batch.src[i].value())].push_back(i);
        }
        if (n > 0 && s->partition.size() > 1) {
          std::size_t max_bucket = 0;
          for (const auto& bucket : s->partition) {
            max_bucket = std::max(max_bucket, bucket.size());
          }
          obs_.shard_skew.set(static_cast<std::int64_t>(
              max_bucket * 100 * s->partition.size() / n));
        }
        s->morsels.clear();
        for (std::uint32_t b = 0;
             b < static_cast<std::uint32_t>(s->partition.size()); ++b) {
          const auto bucket_size =
              static_cast<std::uint32_t>(s->partition[b].size());
          for (std::uint32_t begin = 0; begin < bucket_size;
               begin += kMorselRecords) {
            s->morsels.push_back(
                {b, begin, std::min(begin + kMorselRecords, bucket_size)});
          }
        }
      },
      {classify});

  // Stage 4: the plan task — gated on the previous hour's fence, so
  // shard scratch (begin_hour) and the report are never touched while
  // an earlier hour is still folding. Submits the morsel and fan-in
  // tasks dynamically (their count is known only after partitioning).
  // Its `finally` settles the hour itself when fail-fast skipped the
  // body — the fan-in (whose `finally` normally does it) was then never
  // created, and an unsettled hour would strand its fence and credit
  // forever (every later hour is fence-chained behind it).
  util::TaskOptions plan_options;
  plan_options.finally = [this, s = &slot] {
    if (s->fanin_submitted) {
      graph_->release(s->fanin_gate);  // the fan-in may run from here on
    } else {
      finish_hour(*s);
    }
  };
  const TaskId plan_deps[] = {partition, prev_fence};
  g.submit(
      [this, s = &slot](unsigned) {
        for (auto& shard : shards_) shard->begin_hour();
        std::vector<TaskId> morsel_ids;
        morsel_ids.reserve(s->morsels.size());
        for (const Morsel& morsel : s->morsels) {
          util::TaskOptions options;
          // Locality hint: the first line the task reads is its slice
          // of the partition index array.
          options.prefetch =
              s->partition[morsel.shard].data() + morsel.begin;
          morsel_ids.push_back(graph_->submit(
              [this, s, morsel](unsigned lane) {
                obs::ScopedTimer timer(obs_.shard);
                const BatchView view(s->batch, *s->tag_col);
                shards_[lane]->observe(
                    *this, view, s->interval,
                    s->partition[morsel.shard].data() + morsel.begin,
                    morsel.end - morsel.begin, s->seq,
                    s->collect_discoveries);
              },
              {}, options));
        }
        util::TaskOptions fanin_options;
        fanin_options.finally = [this, s] { finish_hour(*s); };
        // The extra manual dependency keeps the fan-in from running
        // until the plan's `finally` releases it — even if every morsel
        // finishes first. Without the gate, the fan-in could complete
        // and finish_hour recycle this slot before the `finally` reads
        // fanin_submitted, double-settling the hour.
        fanin_options.manual_dependencies = 1;
        s->fanin_gate = graph_->submit(
            [this, s](unsigned) {
              obs::ScopedTimer timer(obs_.fanin);
              fan_in_hour(s->interval, s->collect_discoveries);
            },
            morsel_ids.data(), morsel_ids.size(), fanin_options);
        s->fanin_submitted = true;
      },
      plan_deps, 2, plan_options);
}

void AnalysisPipeline::finish_hour(HourSlot& slot) {
  // The fan-in task's `finally`: runs even when fail-fast skipped the
  // hour, so hooks, fences, credits, and gauges always settle.
  const bool ok = !graph_->failed();
  if (slot.after) {
    // Before the fence release: a hook that snapshots or evicts sees
    // hours up to this one fully folded and no later observe running.
    slot.after(slot.batch, ok);
    slot.after = nullptr;
  }
  obs_.overlap.record_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - slot.begin)
          .count()));
  obs_.inflight_hours.add(-1);
  graph_->release(slot.fence);
  {
    std::lock_guard<std::mutex> lock(credit_mutex_);
    ++credits_available_;
  }
  credit_cv_.notify_one();
}

template <typename View>
void AnalysisPipeline::observe_view(const View view, int interval) {
  const std::uint32_t seq = observe_seq_++;
  const bool collect_discoveries = static_cast<bool>(discovery_sink_);
  const int h = interval;

  for (auto& shard : shards_) shard->begin_hour();

  // ---- fan-out ----
  if (shards_.size() == 1) {
    obs::ScopedTimer shard_timer(obs_.shard);
    shards_[0]->observe(*this, view, h, nullptr, view.size(), seq,
                        collect_discoveries);
  } else {
    const auto n = static_cast<std::uint32_t>(view.size());
    {
      obs::ScopedTimer partition_timer(obs_.partition);
      for (auto& bucket : partition_) bucket.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        partition_[shard_of(view.src(i).value())].push_back(i);
      }
      if (n > 0) {
        std::size_t max_bucket = 0;
        for (const auto& bucket : partition_) {
          max_bucket = std::max(max_bucket, bucket.size());
        }
        // max/mean x 100: 100 = even partition, threads x 100 = one hot
        // bucket. The gauge max over a run is its worst hour.
        obs_.shard_skew.set(static_cast<std::int64_t>(
            max_bucket * 100 * partition_.size() / n));
      }
    }
    if (options_.scheduler == ShardScheduler::Static) {
      pool_->run_indexed(shards_.size(), [&](std::size_t s) {
        obs::ScopedTimer shard_timer(obs_.shard);
        const auto& bucket = partition_[s];
        shards_[s]->observe(*this, view, h, bucket.data(), bucket.size(), seq,
                            collect_discoveries);
      });
    } else {
      morsels_.clear();
      for (std::uint32_t s = 0; s < partition_.size(); ++s) {
        const auto bucket_size = static_cast<std::uint32_t>(partition_[s].size());
        for (std::uint32_t begin = 0; begin < bucket_size;
             begin += kMorselRecords) {
          morsels_.push_back(
              {s, begin, std::min(begin + kMorselRecords, bucket_size)});
        }
      }
      if (graph_) {
        // Synchronous observe under the Graph scheduler: the same
        // morsel fan-out as stealing, but on the task substrate (the
        // ThreadPool adapter) — an independent task per morsel, each on
        // the lane-owned shard accumulator, full barrier at the end.
        graph_->run_indexed(morsels_.size(), [&](unsigned lane,
                                                 std::size_t m) {
          obs::ScopedTimer shard_timer(obs_.shard);
          const Morsel& morsel = morsels_[m];
          shards_[lane]->observe(
              *this, view, h, partition_[morsel.shard].data() + morsel.begin,
              morsel.end - morsel.begin, seq, collect_discoveries);
        });
      } else {
        util::ThreadPool::MorselStats stats;
        pool_->run_morsels(
            morsels_.size(),
            [&](unsigned worker, std::size_t m) {
              obs::ScopedTimer shard_timer(obs_.shard);
              const Morsel& morsel = morsels_[m];
              shards_[worker]->observe(
                  *this, view, h,
                  partition_[morsel.shard].data() + morsel.begin,
                  morsel.end - morsel.begin, seq, collect_discoveries);
            },
            &stats);
        obs_.morsel_claimed.add(stats.claimed);
        obs_.morsel_stolen.add(stats.stolen);
      }
    }
  }

  obs::ScopedTimer fanin_timer(obs_.fanin);
  fan_in_hour(h, collect_discoveries);
}

void AnalysisPipeline::fan_in_hour(const int h,
                                   const bool collect_discoveries) {
  // ---- fan-in: per-hour distinct-destination counts ----
  for (int realm = 0; realm < 2; ++realm) {
    const bool consumer = realm == 0;
    std::size_t udp_ips, udp_ports, scan_ips, scan_ports;
    if (shards_.size() == 1) {
      udp_ips = shards_[0]->hour_udp_dsts[realm].size();
      udp_ports = shards_[0]->hour_udp_ports[realm].count();
      scan_ips = shards_[0]->hour_scan_dsts[realm].size();
      scan_ports = shards_[0]->hour_scan_ports[realm].count();
    } else {
      // Destinations are not partitioned by the shard key — union.
      // Reserve the union bound up front: for_each feeds keys in hash
      // order, and a destination smaller than its sources probes
      // quadratically on such a stream (see util::FlatSet::insert_all).
      std::bitset<65536> udp_port_union, scan_port_union;
      std::size_t udp_bound = 0, scan_bound = 0;
      for (const auto& shard : shards_) {
        udp_bound += shard->hour_udp_dsts[realm].size();
        scan_bound += shard->hour_scan_dsts[realm].size();
      }
      union_scratch_.clear();
      union_scratch_.reserve(udp_bound);
      for (const auto& shard : shards_) {
        shard->hour_udp_dsts[realm].for_each(
            [this](std::uint32_t dst) { union_scratch_.insert(dst); });
        udp_port_union |= shard->hour_udp_ports[realm];
      }
      udp_ips = union_scratch_.size();
      udp_ports = udp_port_union.count();
      union_scratch_.clear();
      union_scratch_.reserve(scan_bound);
      for (const auto& shard : shards_) {
        shard->hour_scan_dsts[realm].for_each(
            [this](std::uint32_t dst) { union_scratch_.insert(dst); });
        scan_port_union |= shard->hour_scan_ports[realm];
      }
      scan_ips = union_scratch_.size();
      scan_ports = scan_port_union.count();
    }
    report_.udp_series.of(consumer).dst_ips.add(
        h, static_cast<double>(udp_ips));
    report_.udp_series.of(consumer).dst_ports.add(
        h, static_cast<double>(udp_ports));
    report_.scan_series.of(consumer).dst_ips.add(
        h, static_cast<double>(scan_ips));
    report_.scan_series.of(consumer).dst_ports.add(
        h, static_cast<double>(scan_ports));
  }
  // Scanner devices: a union, not a sum of sizes — under stealing the
  // same device can scan from several worker partials in one hour.
  std::size_t scanners;
  if (shards_.size() == 1) {
    scanners = shards_[0]->hour_scanners.size();
  } else {
    std::size_t scanner_bound = 0;
    for (const auto& shard : shards_) {
      scanner_bound += shard->hour_scanners.size();
    }
    union_scratch_.clear();
    union_scratch_.reserve(scanner_bound);
    for (const auto& shard : shards_) {
      shard->hour_scanners.for_each(
          [this](std::uint32_t device) { union_scratch_.insert(device); });
    }
    scanners = union_scratch_.size();
  }
  scanners_per_hour_.add(h, static_cast<double>(scanners));

  // ---- fan-in: unknown-source promotion ----
  // The hourly floor must see a source's whole hour, so the per-state
  // tallies are summed first (under stealing one source's records can be
  // split across states; with one state — or the static schedule, where
  // a source maps to one bucket — the sum is the single tally).
  const auto promote = [&](std::uint32_t src, const UnknownHourTally& tally) {
    if (tally.packets < options_.unknown_profile_hourly_floor) return;
    auto& profile = unknown_profiles_[src];
    profile.ip = net::Ipv4Address(src);
    profile.packets += tally.packets;
    profile.tcp_syn_packets += tally.tcp_syn;
    profile.iot_port_packets += tally.iot_port;
    if (profile.first_interval < 0) profile.first_interval = h;
    profile.last_interval = h;
  };
  if (shards_.size() == 1) {
    shards_[0]->unknown_hour.for_each(promote);
  } else {
    std::size_t unknown_bound = 0;
    for (const auto& shard : shards_) {
      unknown_bound += shard->unknown_hour.size();
    }
    unknown_scratch_.clear();
    unknown_scratch_.reserve(unknown_bound);
    for (const auto& shard : shards_) {
      shard->unknown_hour.for_each(
          [this](std::uint32_t src, const UnknownHourTally& tally) {
            auto& sum = unknown_scratch_[src];
            sum.packets += tally.packets;
            sum.tcp_syn += tally.tcp_syn;
            sum.iot_port += tally.iot_port;
          });
    }
    unknown_scratch_.for_each(promote);
  }

  // ---- fan-in: first-sighting notifications, in record order ----
  // Each state lists the devices whose ledger it created this call; the
  // candidates are ordered by their min stream position (unique — one
  // record, one device) and deduped through the global discovered set,
  // so the sink sees exactly the sequential first sightings.
  if (collect_discoveries) {
    std::vector<std::pair<std::uint64_t, Discovery>> events;
    for (const auto& shard : shards_) {
      for (const std::uint32_t device : shard->hour_new_devices) {
        const std::uint32_t* slot_index = shard->ledger_index.find(device);
        const ShardState::LedgerSlot& slot = shard->ledgers[*slot_index];
        events.emplace_back(slot.first_seen,
                            Discovery{device, h, slot.first_cls, slot.first_n});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [pos, discovery] : events) {
      (void)pos;
      if (discovered_.insert(discovery.device)) discovery_sink_(discovery);
    }
  }
}

Report AnalysisPipeline::finalize() {
  drain();
  if (!finalized_) {
    obs::ScopedTimer finalize_timer(obs_.finalize);
    consolidate();
    complete(report_);
    finalized_ = true;
  }
  return report_;
}

Report AnalysisPipeline::snapshot() {
  // Off-lane callers must see every submitted hour folded (and a failed
  // pipeline rethrow, not report partial state). From inside a fan-in
  // hook the drain is skipped: the fence chain already guarantees hours
  // up to the hook's are folded, and no later observe task is running.
  drain();
  // After finalize() the stored report already holds the completed
  // statistics; completing it again would double-count.
  if (finalized_) return report_;
  obs::ScopedTimer snapshot_timer(obs_.snapshot);
  consolidate();
  Report report = report_;
  complete(report);
  return report;
}

std::size_t AnalysisPipeline::evict_idle_unknown_profiles(int before_interval) {
  std::size_t evicted = 0;
  for (auto it = unknown_profiles_.begin(); it != unknown_profiles_.end();) {
    if (it->second.last_interval < before_interval) {
      frozen_unknown_.push_back(it->second);
      it = unknown_profiles_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

void AnalysisPipeline::consolidate() {
  obs::ScopedTimer merge_timer(obs_.merge);
  ShardState& merged = *merged_;
  const auto& inventory = db_->devices();

  // ---- device ledgers ----
  // A device with a merged ledger folds into it in place (summed
  // counters, min/max intervals, OR'd day mask). The rest were first
  // seen since the previous consolidation: fold them across lanes (under
  // stealing one device can hold a ledger in several), then append them
  // by the min stream position of their first sighting. Positions
  // ((observe_seq << 32) | record index) only grow from one
  // consolidation to the next — hours fold in submission order, also
  // under the Graph scheduler, before any hook can snapshot — so the
  // appended tail sorts after every merged device and report_.devices
  // stays in sequential first-sighting order.
  if (merged_position_.empty()) {
    merged_position_.assign(inventory.size(), kNotMerged);
  }
  std::vector<ShardState::LedgerSlot> fresh;
  util::FlatMap<std::uint32_t, std::uint32_t> fresh_slot;
  for (const auto& shard : shards_) {
    const auto& ledgers = shard->ledgers;
    for (std::size_t i = 0; i < ledgers.size(); ++i) {
      // Most ledgers update a merged row at a random position: prefetch
      // the position of ledger i + 8 and the row of ledger i + 4, whose
      // position that earlier prefetch brought into cache.
      if (i + 8 < ledgers.size()) {
        __builtin_prefetch(&merged_position_[ledgers[i + 8].traffic.device]);
      }
      if (i + 4 < ledgers.size()) {
        const std::uint32_t ahead =
            merged_position_[ledgers[i + 4].traffic.device];
        if (ahead != kNotMerged) {
          const char* row =
              reinterpret_cast<const char*>(&report_.devices[ahead]);
          for (std::size_t line = 0; line < sizeof(DeviceTraffic); line += 64) {
            __builtin_prefetch(row + line);
          }
        }
      }
      const ShardState::LedgerSlot& slot = ledgers[i];
      const std::uint32_t device = slot.traffic.device;
      if (const std::uint32_t position = merged_position_[device];
          position != kNotMerged) {
        merge_traffic(report_.devices[position], slot.traffic);
      } else if (const std::uint32_t* existing = fresh_slot.find(device)) {
        ShardState::LedgerSlot& into = fresh[*existing];
        if (slot.first_seen < into.first_seen) {
          into.first_seen = slot.first_seen;
          into.first_cls = slot.first_cls;
          into.first_n = slot.first_n;
        }
        merge_traffic(into.traffic, slot.traffic);
      } else {
        fresh_slot.insert(device, static_cast<std::uint32_t>(fresh.size()));
        fresh.push_back(slot);
      }
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(fresh.size());
  for (std::uint32_t i = 0; i < fresh.size(); ++i) {
    order.emplace_back(fresh[i].first_seen, i);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [first_seen, i] : order) {
    const ShardState::LedgerSlot& slot = fresh[i];
    const std::uint32_t device = slot.traffic.device;
    const auto position = static_cast<std::uint32_t>(report_.devices.size());
    merged_position_[device] = position;
    report_.devices.push_back(slot.traffic);
    report_.device_index.emplace(device, position);
    merged_consumer_.push_back(inventory[device].is_consumer() ? 1 : 0);
  }

  // ---- additive tallies, series and distinct-device pair sets ----
  // Distinct-device counts grow with each pair the merged sets did not
  // hold yet, so a device split across lanes or epochs counts once.
  for (const auto& shard : shards_) {
    merged.total_packets += shard->total_packets;
    merged.unattributed_packets += shard->unattributed_packets;
    for (const bool consumer : {true, false}) {
      merged.tcp_packets.of(consumer) += shard->tcp_packets.of(consumer);
      merged.udp_packets.of(consumer) += shard->udp_packets.of(consumer);
      merged.icmp_packets.of(consumer) += shard->icmp_packets.of(consumer);
      add_series(merged.udp_packet_series.of(consumer),
                 shard->udp_packet_series.of(consumer));
      add_series(merged.scan_packet_series.of(consumer),
                 shard->scan_packet_series.of(consumer));
      add_series(merged.backscatter_series.of(consumer),
                 shard->backscatter_series.of(consumer));
    }
    for (std::uint32_t port = 0; port < 65536; ++port) {
      merged.udp_port_packets[port] += shard->udp_port_packets[port];
    }
    merged.udp_ports_seen |= shard->udp_ports_seen;
    merged.udp_port_device_pairs.insert_all(
        shard->udp_port_device_pairs, [&](std::uint64_t pair) {
          ++merged.udp_port_devices[static_cast<std::size_t>(pair >> 32)];
        });
    for (std::size_t s = 0; s < merged.service_packets.size(); ++s) {
      merged.service_packets[s] += shard->service_packets[s];
      merged.service_consumer_packets[s] += shard->service_consumer_packets[s];
      add_series(merged.service_series[s], shard->service_series[s]);
    }
    merged.service_device_pairs.insert_all(
        shard->service_device_pairs, [&](std::uint64_t pair) {
          const auto s = static_cast<std::size_t>(pair >> 32);
          const auto device = static_cast<std::uint32_t>(pair & 0xffffffffu);
          if (inventory[device].is_consumer()) {
            ++merged.service_consumer_devices[s];
          } else {
            ++merged.service_cps_devices[s];
          }
        });
    // Victim series add element-wise: per-hour sums are order-exact,
    // and under stealing one victim can appear in several states.
    for (const auto& [device, series] : shard->victim_series) {
      auto [it, inserted] = merged.victim_series.try_emplace(device);
      if (inserted) it->second.assign(kHours, 0.0);
      for (int hh = 0; hh < kHours; ++hh) {
        it->second[static_cast<std::size_t>(hh)] +=
            series[static_cast<std::size_t>(hh)];
      }
    }
    shard->clear_partials();
  }

  // ---- frozen unknown-source partials ----
  for (const auto& profile : frozen_unknown_) {
    UnknownSourceProfile& into = frozen_folded_[profile.ip.value()];
    into.ip = profile.ip;
    merge_profile(into, profile);
  }
  frozen_unknown_.clear();
}

void AnalysisPipeline::complete(Report& report) const {
  const ShardState& merged = *merged_;
  report.total_packets = merged.total_packets;
  report.unattributed_packets = merged.unattributed_packets;
  for (const bool consumer : {true, false}) {
    report.tcp_packets.of(consumer) = merged.tcp_packets.of(consumer);
    report.udp_packets.of(consumer) = merged.udp_packets.of(consumer);
    report.icmp_packets.of(consumer) = merged.icmp_packets.of(consumer);
    report.udp_series.of(consumer).packets =
        merged.udp_packet_series.of(consumer);
    report.scan_series.of(consumer).packets =
        merged.scan_packet_series.of(consumer);
    report.backscatter_series.of(consumer) =
        merged.backscatter_series.of(consumer);
  }

  // ---- per-device counts, in one pass over the merged ledgers ----
  // Tallied per realm (0 = consumer, 1 = CPS) into locals, branch-free:
  // 26k devices with mixed realms and classes mispredict every branch.
  {
    constexpr int kDays = util::AnalysisWindow::kDays;
    std::size_t discovered[2] = {}, udp_devices[2] = {}, victims[2] = {},
                scanners[2] = {}, icmp_scanners[2] = {};
    std::uint64_t backscatter[2] = {}, icmp_scan[2] = {}, tcp_scan = 0;
    std::array<std::size_t, kDays> first_day[2] = {}, active[2] = {};
    for (std::size_t i = 0; i < report.devices.size(); ++i) {
      const DeviceTraffic& ledger = report.devices[i];
      const int r = merged_consumer_[i] != 0 ? 0 : 1;
      ++discovered[r];
      ++first_day[r][static_cast<std::size_t>(
          util::AnalysisWindow::day_of_interval(ledger.first_interval))];
      for (int d = 0; d < kDays; ++d) {
        active[r][static_cast<std::size_t>(d)] +=
            (ledger.days_active_mask >> d) & 1u;
      }
      udp_devices[r] += ledger.udp > 0;
      const std::uint64_t bs = ledger.backscatter();
      victims[r] += bs > 0;
      backscatter[r] += bs;
      scanners[r] += ledger.tcp_scan > 0;
      tcp_scan += ledger.tcp_scan;
      icmp_scanners[r] += ledger.icmp_scan > 0;
      icmp_scan[r] += ledger.icmp_scan;
    }
    report.discovered_consumer = discovered[0];
    report.discovered_cps = discovered[1];
    // Discovery curve (Fig 2): devices first seen on or before each day.
    std::size_t seen[2] = {};
    for (std::size_t d = 0; d < kDays; ++d) {
      report.cumulative_by_day_consumer[d] = seen[0] += first_day[0][d];
      report.cumulative_by_day_cps[d] = seen[1] += first_day[1][d];
    }
    report.active_by_day_consumer = active[0];
    report.active_by_day_cps = active[1];
    report.udp_device_count = udp_devices[0] + udp_devices[1];
    report.udp_consumer_devices = udp_devices[0];
    report.dos_victims = victims[0] + victims[1];
    report.dos_victims_cps = victims[1];
    report.backscatter_packets.consumer = backscatter[0];
    report.backscatter_packets.cps = backscatter[1];
    report.scanner_devices = scanners[0] + scanners[1];
    report.scanner_consumer_devices = scanners[0];
    report.tcp_scan_total = tcp_scan;
    report.icmp_scanner_devices = icmp_scanners[0] + icmp_scanners[1];
    report.icmp_scanner_consumer_devices = icmp_scanners[0];
    report.icmp_scan_total = icmp_scan[0] + icmp_scan[1];
    report.icmp_scan_consumer_packets = icmp_scan[0];
  }

  // ---- UDP roll-ups ----
  report.udp_total_packets =
      report.udp_packets.consumer + report.udp_packets.cps;
  report.udp_distinct_ports = merged.udp_ports_seen.count();
  {
    // Top UDP ports by packets. The comparator is a total order (ports
    // are unique), so the partial sort keeps exactly the rows, in
    // exactly the order, a full sort would.
    std::vector<UdpPortRow> rows;
    rows.reserve(merged.udp_ports_seen.count());
    for (std::uint32_t port = 0; port < 65536; ++port) {
      if (merged.udp_port_packets[port] > 0) {
        rows.push_back({static_cast<net::Port>(port),
                        merged.udp_port_packets[port],
                        merged.udp_port_devices[port]});
      }
    }
    const auto top = rows.begin() + static_cast<std::ptrdiff_t>(
                                        std::min<std::size_t>(rows.size(), 32));
    std::partial_sort(rows.begin(), top, rows.end(),
                      [](const UdpPortRow& a, const UdpPortRow& b) {
                        if (a.packets != b.packets) return a.packets > b.packets;
                        return a.port < b.port;
                      });
    rows.erase(top, rows.end());
    report.udp_top_ports = std::move(rows);
  }
  report.udp_consumer_port_ip_correlation = analysis::pearson(
      report.udp_series.consumer.dst_ports.values(),
      report.udp_series.consumer.dst_ips.values());

  // ---- backscatter / DoS ----
  report.backscatter_total =
      report.backscatter_packets.consumer + report.backscatter_packets.cps;
  report.backscatter_mwu =
      analysis::mann_whitney_u(report.backscatter_series.cps.values(),
                               report.backscatter_series.consumer.values());

  // Spike detection with dominant-victim attribution (Section IV-B1).
  {
    analysis::HourlySeries total_bs;
    for (int h = 0; h < kHours; ++h) {
      total_bs.add(h, report.backscatter_series.consumer.at(h) +
                          report.backscatter_series.cps.at(h));
    }
    for (const int h : total_bs.spikes(options_.spike_multiple)) {
      DosSpike spike;
      spike.interval = h;
      spike.backscatter_packets = total_bs.at(h);
      double best = 0.0;
      for (const auto& [device, series] : merged.victim_series) {
        const double v = series[static_cast<std::size_t>(h)];
        // Strict tie-break on the device id: the winner must not depend
        // on hash-map iteration order (it differs per shard count).
        if (v > best || (v == best && v > 0.0 && device < spike.top_victim)) {
          best = v;
          spike.top_victim = device;
        }
      }
      spike.top_victim_share =
          spike.backscatter_packets > 0 ? best / spike.backscatter_packets : 0;
      report.dos_spikes.push_back(spike);
    }
    std::sort(report.dos_spikes.begin(), report.dos_spikes.end(),
              [](const DosSpike& a, const DosSpike& b) {
                return a.interval < b.interval;
              });
  }

  // ---- TCP scanning roll-ups ----
  {
    const auto& services = workload::scan_services();
    for (std::size_t s = 0; s < services.size(); ++s) {
      ScanServiceRow row;
      row.name = services[s].name;
      row.packets = merged.service_packets[s];
      row.consumer_packets = merged.service_consumer_packets[s];
      row.consumer_devices = merged.service_consumer_devices[s];
      row.cps_devices = merged.service_cps_devices[s];
      report.scan_services.push_back(std::move(row));
      report.scan_service_series[s] = merged.service_series[s];
    }
  }
  {
    analysis::HourlySeries scan_total;
    for (int h = 0; h < kHours; ++h) {
      scan_total.add(h, report.scan_series.consumer.packets.at(h) +
                            report.scan_series.cps.packets.at(h));
    }
    report.scan_device_packet_correlation = analysis::pearson(
        scanners_per_hour_.values(), scan_total.values());
  }

  // ---- unknown-source profiles (coordinator-owned; see fan_in_hour) ----
  // A source can hold one hot profile and one folded frozen partial
  // (evicted, then re-promoted when it re-emerged). Fold them per IP
  // with the same commutative-exact operations as every other merge —
  // summed tallies, min first / max last interval — so eviction never
  // shows in the report bytes.
  report.unknown_sources.reserve(unknown_profiles_.size() +
                                 frozen_folded_.size());
  for (const auto& [src, profile] : unknown_profiles_) {
    report.unknown_sources.push_back(profile);
    if (const UnknownSourceProfile* frozen = frozen_folded_.find(src)) {
      merge_profile(report.unknown_sources.back(), *frozen);
    }
  }
  frozen_folded_.for_each(
      [&](std::uint32_t src, const UnknownSourceProfile& profile) {
        if (!unknown_profiles_.contains(src)) {
          report.unknown_sources.push_back(profile);
        }
      });
  std::sort(report.unknown_sources.begin(), report.unknown_sources.end(),
            [](const UnknownSourceProfile& a, const UnknownSourceProfile& b) {
              // Total order (packets desc, then IP): a packets-only
              // comparator would leave tied rows in hash-map iteration
              // order, which varies with the shard count.
              if (a.packets != b.packets) return a.packets > b.packets;
              return a.ip.value() < b.ip.value();
            });
}

}  // namespace iotscope::core
