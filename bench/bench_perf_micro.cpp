// google-benchmark microbenchmarks of the pipeline hot paths: flowtuple
// encode/decode, inventory join (hash lookup) vs a sorted-merge baseline
// (the DESIGN.md join ablation), taxonomy classification, telescope
// aggregation, pcap round-trip, and the sharded analysis pipeline at
// 1/2/4/8 worker threads (the threading speedup table in EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/classifier.hpp"
#include "core/scenario_run.hpp"
#include "core/stream.hpp"
#include "net/block_codec.hpp"
#include "core/study.hpp"
#include "net/flow_batch.hpp"
#include "inventory/generator.hpp"
#include "net/flowtuple.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telescope/capture.hpp"
#include "telescope/store.hpp"
#include "util/flat_hash.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "workload/engine.hpp"

using namespace iotscope;

namespace {

net::HourlyFlows make_flows(std::size_t n, util::Rng& rng) {
  net::HourlyFlows flows;
  flows.interval = 0;
  flows.start_time = util::AnalysisWindow::start();
  flows.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::FlowTuple t;
    t.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    t.dst = net::Ipv4Address::from_octets(
        10, static_cast<std::uint8_t>(rng.uniform(0, 255)),
        static_cast<std::uint8_t>(rng.uniform(0, 255)),
        static_cast<std::uint8_t>(rng.uniform(0, 255)));
    t.src_port = static_cast<net::Port>(rng.uniform(1024, 65535));
    t.dst_port = static_cast<net::Port>(rng.uniform(1, 65535));
    const auto r = rng.uniform01();
    t.protocol = r < 0.8   ? net::Protocol::Tcp
                 : r < 0.95 ? net::Protocol::Udp
                            : net::Protocol::Icmp;
    t.tcp_flags = t.protocol == net::Protocol::Tcp
                      ? (rng.chance(0.9) ? net::kSyn
                                         : static_cast<std::uint8_t>(
                                               net::kSyn | net::kAck))
                      : 0;
    t.ttl = static_cast<std::uint8_t>(rng.uniform(30, 200));
    t.ip_length = 44;
    t.packet_count = rng.uniform(1, 20);
    flows.records.push_back(t);
  }
  return flows;
}

const inventory::IoTDeviceDatabase& bench_inventory() {
  static const auto db = [] {
    inventory::SynthesisConfig config;
    config.device_count = 33100;
    return inventory::synthesize_inventory(config);
  }();
  return db;
}

// Block encoder into a reused buffer — the production write path.
void BM_FlowtupleEncode(benchmark::State& state) {
  util::Rng rng(1);
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  std::string blob;
  for (auto _ : state) {
    blob.clear();
    net::FlowTupleCodec::encode(blob, flows);
    benchmark::DoNotOptimize(blob);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowtupleEncode)->Arg(1000)->Arg(100000);

// Before-variant: the same records through the ostream wrapper (buffer
// build + one os.write per file). The delta over BM_FlowtupleEncode is
// the stream overhead the block path avoids.
void BM_FlowtupleEncodeStream(benchmark::State& state) {
  util::Rng rng(1);
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    std::ostringstream os;
    net::FlowTupleCodec::write(os, flows);
    benchmark::DoNotOptimize(os);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowtupleEncodeStream)->Arg(1000)->Arg(100000);

// Block decoder over an in-memory blob — the same record decoder that
// FlowTupleCodec::read_columns() feeds from a file in 100 KiB chunks.
void BM_FlowtupleDecode(benchmark::State& state) {
  util::Rng rng(1);
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  std::string blob;
  net::FlowTupleCodec::encode(blob, flows);
  for (auto _ : state) {
    auto decoded = net::FlowTupleCodec::decode(blob);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowtupleDecode)->Arg(1000)->Arg(100000);

// Columnar decode: the same blob filled straight into FlowBatch column
// vectors — the production read path since the SoA refactor. Compare
// against BM_FlowtupleDecode (decode-to-AoS) for the layout delta.
void BM_FlowtupleDecodeColumns(benchmark::State& state) {
  util::Rng rng(1);
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  std::string blob;
  net::FlowTupleCodec::encode(blob, flows);
  for (auto _ : state) {
    auto decoded = net::FlowTupleCodec::decode_columns(blob);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowtupleDecodeColumns)->Arg(1000)->Arg(100000);

// Before-variant: the original per-field istream decoder this PR
// replaced (kept as FlowTupleCodec::read_unbuffered). The speedup
// target in ISSUE/EXPERIMENTS is BM_FlowtupleDecode vs this.
void BM_FlowtupleDecodeUnbuffered(benchmark::State& state) {
  util::Rng rng(1);
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  std::string blob;
  net::FlowTupleCodec::encode(blob, flows);
  for (auto _ : state) {
    std::istringstream is(blob);
    auto decoded = net::FlowTupleCodec::read_unbuffered(is);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowtupleDecodeUnbuffered)->Arg(1000)->Arg(100000);

void BM_InventoryHashJoin(benchmark::State& state) {
  const auto& db = bench_inventory();
  util::Rng rng(2);
  auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  // Make ~30% of sources real inventory IPs so the join hits.
  for (std::size_t i = 0; i < flows.records.size(); i += 3) {
    flows.records[i].src =
        db.devices()[rng.uniform(0, db.size() - 1)].ip;
  }
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& record : flows.records) {
      if (db.find(record.src) != nullptr) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InventoryHashJoin)->Arg(100000);

// Before-variant: the node-based std::unordered_map index the flat
// open-addressing index replaced. Same key mix, same hit rate.
void BM_InventoryUnorderedJoin(benchmark::State& state) {
  const auto& db = bench_inventory();
  util::Rng rng(2);
  auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  for (std::size_t i = 0; i < flows.records.size(); i += 3) {
    flows.records[i].src = db.devices()[rng.uniform(0, db.size() - 1)].ip;
  }
  std::unordered_map<std::uint32_t, std::uint32_t> by_ip;
  by_ip.reserve(db.size());
  for (std::uint32_t i = 0; i < db.size(); ++i) {
    by_ip.emplace(db.devices()[i].ip.value(), i);
  }
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& record : flows.records) {
      if (by_ip.find(record.src.value()) != by_ip.end()) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InventoryUnorderedJoin)->Arg(100000);

// Join ablation: sorted-merge join over (sorted flows x sorted device IPs).
void BM_InventorySortedMergeJoin(benchmark::State& state) {
  const auto& db = bench_inventory();
  util::Rng rng(2);
  auto flows = make_flows(static_cast<std::size_t>(state.range(0)), rng);
  for (std::size_t i = 0; i < flows.records.size(); i += 3) {
    flows.records[i].src = db.devices()[rng.uniform(0, db.size() - 1)].ip;
  }
  std::vector<std::uint32_t> device_ips;
  device_ips.reserve(db.size());
  for (const auto& device : db.devices()) {
    device_ips.push_back(device.ip.value());
  }
  std::sort(device_ips.begin(), device_ips.end());
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint32_t> srcs;
    srcs.reserve(flows.records.size());
    for (const auto& record : flows.records) srcs.push_back(record.src.value());
    state.ResumeTiming();
    std::sort(srcs.begin(), srcs.end());
    std::size_t hits = 0;
    auto it = device_ips.begin();
    for (const auto src : srcs) {
      it = std::lower_bound(it, device_ips.end(), src);
      if (it != device_ips.end() && *it == src) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InventorySortedMergeJoin)->Arg(100000);

// --- Per-hour accumulator ablation -------------------------------------
//
// Models ShardState's per-hour distinct sets: each "hour" inserts a mix
// of fresh and repeated u32 keys (distinct dst IPs) and u64 keys
// ((port<<32)|device dedup pairs), then clears. The flat variant is the
// epoch-cleared open-addressing set the pipeline now uses — steady state
// allocates nothing; the unordered variant is the std::unordered_set it
// replaced, which re-allocates nodes every hour.

constexpr std::size_t kAccumHourInserts = 20000;
constexpr std::size_t kAccumHours = 16;

std::vector<std::uint32_t> accum_keys() {
  util::Rng rng(6);
  std::vector<std::uint32_t> keys(kAccumHourInserts);
  for (auto& k : keys) {
    // ~50% duplicates within an hour, like repeated dst IPs.
    k = static_cast<std::uint32_t>(rng.uniform(0, kAccumHourInserts / 2));
  }
  return keys;
}

void BM_AccumulatorFlatSets(benchmark::State& state) {
  const auto keys = accum_keys();
  util::FlatSet<std::uint32_t> dsts;
  util::FlatSet<std::uint64_t> pairs;
  for (auto _ : state) {
    std::size_t fresh = 0;
    for (std::size_t hour = 0; hour < kAccumHours; ++hour) {
      for (const auto k : keys) {
        if (dsts.insert(k)) ++fresh;
        pairs.insert((std::uint64_t{k} << 32) | hour);
      }
      dsts.clear();
      pairs.clear();
    }
    benchmark::DoNotOptimize(fresh);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kAccumHours *
                                kAccumHourInserts));
}
BENCHMARK(BM_AccumulatorFlatSets);

void BM_AccumulatorUnorderedSets(benchmark::State& state) {
  const auto keys = accum_keys();
  std::unordered_set<std::uint32_t> dsts;
  std::unordered_set<std::uint64_t> pairs;
  for (auto _ : state) {
    std::size_t fresh = 0;
    for (std::size_t hour = 0; hour < kAccumHours; ++hour) {
      for (const auto k : keys) {
        if (dsts.insert(k).second) ++fresh;
        pairs.insert((std::uint64_t{k} << 32) | hour);
      }
      dsts.clear();
      pairs.clear();
    }
    benchmark::DoNotOptimize(fresh);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kAccumHours *
                                kAccumHourInserts));
}
BENCHMARK(BM_AccumulatorUnorderedSets);

void BM_Classify(benchmark::State& state) {
  util::Rng rng(3);
  const auto flows = make_flows(100000, rng);
  for (auto _ : state) {
    std::size_t scans = 0;
    for (const auto& record : flows.records) {
      if (core::classify(record) == core::FlowClass::TcpScan) ++scans;
    }
    benchmark::DoNotOptimize(scans);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_Classify);

// The shared columnar classification pass: one classify_tag per record
// over contiguous proto/flags/port columns into the reused tag vector —
// what AnalysisPipeline::observe(FlowBatch) runs once per hour. Compare
// against BM_Classify (AoS record structs, one classify per use).
void BM_ClassifyBatch(benchmark::State& state) {
  util::Rng rng(3);
  const auto batch = net::FlowBatch::from_rows(make_flows(100000, rng));
  std::vector<core::ClassTag> tags;
  for (auto _ : state) {
    core::classify_batch(batch, core::TaxonomyOptions{}, tags);
    std::size_t scans = 0;
    for (const auto tag : tags) {
      if (core::tag_class(tag) == core::FlowClass::TcpScan) ++scans;
    }
    benchmark::DoNotOptimize(scans);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ClassifyBatch);

void BM_TelescopeAggregate(benchmark::State& state) {
  util::Rng rng(4);
  const std::size_t n = 100000;
  std::vector<net::PacketRecord> packets;
  packets.reserve(n);
  telescope::DarknetSpace space;
  for (std::size_t i = 0; i < n; ++i) {
    packets.push_back(net::make_tcp_syn(
        util::AnalysisWindow::start() + static_cast<long>(rng.uniform(0, 3599)),
        net::Ipv4Address(static_cast<std::uint32_t>(rng.next())),
        space.random_address(rng),
        static_cast<net::Port>(rng.uniform(1024, 65535)), 23));
  }
  for (auto _ : state) {
    std::size_t flows_out = 0;
    telescope::TelescopeCapture capture(
        space, [&flows_out](net::FlowBatch&& batch) {
          flows_out += batch.size();
        });
    for (const auto& packet : packets) capture.ingest(packet);
    capture.finish();
    benchmark::DoNotOptimize(flows_out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TelescopeAggregate);

void BM_PcapRoundTrip(benchmark::State& state) {
  util::Rng rng(5);
  telescope::DarknetSpace space;
  std::vector<net::PacketRecord> packets;
  for (std::size_t i = 0; i < 10000; ++i) {
    packets.push_back(net::make_udp(
        util::AnalysisWindow::start(),
        net::Ipv4Address(static_cast<std::uint32_t>(rng.next())),
        space.random_address(rng), 40000,
        static_cast<net::Port>(rng.uniform(1, 65535))));
  }
  for (auto _ : state) {
    std::ostringstream os;
    net::PcapWriter writer(os);
    for (const auto& packet : packets) writer.write(packet);
    std::istringstream is(os.str());
    net::PcapReader reader(is);
    net::PacketRecord p;
    std::size_t count = 0;
    while (reader.next(p)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_PcapRoundTrip);

// --- Sharded analysis pipeline: sequential vs N worker threads ---------
//
// The workload is the bench-default study scenario (10% inventory, 1/50
// traffic), synthesized once and replayed into a fresh pipeline per
// iteration. Arg(0) is the thread count; Arg(1) exists so ratios can be
// read straight off the items/s column.

const core::StudyConfig& bench_study_config() {
  static const auto config = core::StudyConfig::bench_default();
  return config;
}

struct BenchWorkload {
  workload::Scenario scenario;
  std::vector<net::FlowBatch> batches;      ///< the production SoA path
  std::vector<net::HourlyFlows> hours;      ///< same records as AoS rows
  std::uint64_t total_packets = 0;
  std::uint64_t total_records = 0;          ///< flowtuple records (rows)
};

const BenchWorkload& bench_workload() {
  static const BenchWorkload instance = [] {
    BenchWorkload w;
    const auto& config = bench_study_config();
    w.scenario = workload::build_scenario(config.scenario);
    telescope::TelescopeCapture capture(
        telescope::DarknetSpace(config.scenario.darknet),
        [&w](net::FlowBatch&& batch) { w.batches.push_back(std::move(batch)); });
    workload::synthesize_into(w.scenario, config.scenario, capture);
    for (auto& b : w.batches) {
      // Production form: the batch is tagged once where it is born (the
      // shared classification pass); observe() consumes the column.
      core::classify_batch(b, config.pipeline.taxonomy);
      w.total_packets += b.total_packets();
      w.total_records += b.size();
      w.hours.push_back(b.to_rows());
    }
    return w;
  }();
  return instance;
}

void BM_PipelineAnalysis(benchmark::State& state) {
  const auto& w = bench_workload();
  core::PipelineOptions options = bench_study_config().pipeline;
  options.threads = static_cast<unsigned>(state.range(0));
  // Zero the obs registry so the stage breakdown below covers exactly
  // this run's iterations at this thread count.
  obs::Registry::instance().reset();
  for (auto _ : state) {
    core::AnalysisPipeline pipeline(w.scenario.inventory, options);
    for (const auto& b : w.batches) pipeline.observe(b);
    auto report = pipeline.finalize();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_packets));
  state.counters["threads"] = static_cast<double>(options.threads);

  // Per-stage wall time per iteration (ms), straight from the metrics
  // registry — the per-thread-count stage breakdown for EXPERIMENTS.md.
  const auto snapshot = obs::Registry::instance().snapshot();
  const auto stage_ms = [&](const char* name) {
    const auto* s = snapshot.stage(name);
    return s == nullptr ? 0.0
                        : static_cast<double>(s->total_ns) / 1e6 /
                              static_cast<double>(state.iterations());
  };
  state.counters["partition_ms"] = stage_ms("pipeline.partition");
  state.counters["shard_observe_ms"] = stage_ms("pipeline.observe.shard");
  state.counters["fanin_ms"] = stage_ms("pipeline.fanin");
  state.counters["finalize_ms"] = stage_ms("pipeline.finalize");
  state.counters["observe_ms"] = stage_ms("pipeline.observe");
  state.counters["classify_ms"] = stage_ms("pipeline.classify");
}
BENCHMARK(BM_PipelineAnalysis)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Metrics-off ablation: identical workload with obs collection disabled.
// Compare against BM_PipelineAnalysis at the same thread count to read
// the observability overhead (budget: ≤ 2 %; instrumentation is at
// hour/shard granularity so the expected delta is noise).
void BM_PipelineAnalysisMetricsOff(benchmark::State& state) {
  const auto& w = bench_workload();
  core::PipelineOptions options = bench_study_config().pipeline;
  options.threads = static_cast<unsigned>(state.range(0));
  obs::set_enabled(false);
  for (auto _ : state) {
    core::AnalysisPipeline pipeline(w.scenario.inventory, options);
    for (const auto& b : w.batches) pipeline.observe(b);
    auto report = pipeline.finalize();
    benchmark::DoNotOptimize(report);
  }
  obs::set_enabled(true);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_packets));
  state.counters["threads"] = static_cast<double>(options.threads);
}
BENCHMARK(BM_PipelineAnalysisMetricsOff)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- AoS vs SoA end-to-end analysis (the PR-4 tentpole ablation) -------
//
// Identical records, identical Report, two record paths: observe_aos
// walks the retained AoS FlowTuple vectors and classifies at every point
// of use (the pre-batch implementation); observe(FlowBatch) walks
// contiguous columns and consumes the class_tag column the shared
// classification pass stamped when the batch was born. Single thread,
// so the delta is pure record-path cost (no partition/fan-out).

void BM_PipelineAnalysisAoS(benchmark::State& state) {
  const auto& w = bench_workload();
  core::PipelineOptions options = bench_study_config().pipeline;
  options.threads = 1;
  for (auto _ : state) {
    core::AnalysisPipeline pipeline(w.scenario.inventory, options);
    for (const auto& h : w.hours) pipeline.observe_aos(h);
    auto report = pipeline.finalize();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_packets));
}
BENCHMARK(BM_PipelineAnalysisAoS)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_PipelineAnalysisBatch(benchmark::State& state) {
  const auto& w = bench_workload();
  core::PipelineOptions options = bench_study_config().pipeline;
  options.threads = 1;
  for (auto _ : state) {
    core::AnalysisPipeline pipeline(w.scenario.inventory, options);
    for (const auto& b : w.batches) pipeline.observe(b);
    auto report = pipeline.finalize();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_packets));
}
BENCHMARK(BM_PipelineAnalysisBatch)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- Heavy-hitter skew: static shard split vs morsel stealing ----------
//
// One source emits ~80% of every hour (heavy_hitter_share = 0.8), so the
// hash partition pins ~80% of each hour's records to one shard. The
// static schedule's critical path is that hot shard; morsel stealing
// chops it into kMorselRecords-sized units that idle workers pull.
//
// Besides wall time (which needs a multi-core box to separate — on a
// single-core CI runner the threads time-slice and all variants collapse
// to sequential), each run reports machine-independent load-balance
// numbers derived from the scheduler's own instrumentation:
//   skew_pct       pipeline.shard.skew high-water: hottest shard as a
//                  percent of the per-shard mean (100 = even,
//                  threads*100 = everything on one shard)
//   model_speedup  per-hour records / critical-path records.
//                  Static: the hot shard is the critical path, so this
//                  is threads*100/skew_pct. Stealing: the critical path
//                  is an even share plus one trailing morsel,
//                  n / (n/threads + kMorselRecords).
//   stolen_share   fraction of morsels that ran on a lane other than
//                  the one the partition assigned them to (stealing
//                  variant only).

const BenchWorkload& skewed_workload() {
  static const BenchWorkload instance = [] {
    BenchWorkload w;
    auto config = bench_study_config().scenario;
    // The skew source adds share/(1-share) = 4x extra records per hour;
    // scale the base traffic down so the total stays bench-sized.
    config.traffic_scale *= 0.25;
    config.heavy_hitter_share = 0.8;
    w.scenario = workload::build_scenario(config);
    telescope::TelescopeCapture capture(
        telescope::DarknetSpace(config.darknet),
        [&w](net::FlowBatch&& batch) { w.batches.push_back(std::move(batch)); });
    workload::synthesize_into(w.scenario, config, capture);
    for (auto& b : w.batches) {
      core::classify_batch(b, bench_study_config().pipeline.taxonomy);
      w.total_packets += b.total_packets();
      w.total_records += b.size();
    }
    return w;
  }();
  return instance;
}

void run_skewed_pipeline(benchmark::State& state,
                         core::ShardScheduler scheduler) {
  const auto& w = skewed_workload();
  core::PipelineOptions options = bench_study_config().pipeline;
  const unsigned threads = static_cast<unsigned>(state.range(0));
  options.threads = threads;
  options.scheduler = scheduler;
  obs::Registry::instance().reset();
  for (auto _ : state) {
    core::AnalysisPipeline pipeline(w.scenario.inventory, options);
    for (const auto& b : w.batches) pipeline.observe(b);
    auto report = pipeline.finalize();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_packets));
  state.counters["threads"] = static_cast<double>(threads);

  const auto snapshot = obs::Registry::instance().snapshot();
  const auto* skew = snapshot.gauge("pipeline.shard.skew");
  // threads == 1 takes the single-shard fast path: no partition, no
  // skew gauge, and by definition no speedup to model.
  const double skew_pct =
      (threads > 1 && skew != nullptr) ? static_cast<double>(skew->max)
                                       : 100.0;
  state.counters["skew_pct"] = skew_pct;
  const double per_hour = static_cast<double>(w.total_records) /
                          static_cast<double>(w.batches.size());
  double model = 1.0;
  if (threads > 1) {
    model = scheduler == core::ShardScheduler::Static
                ? static_cast<double>(threads) * 100.0 / skew_pct
                : per_hour / (per_hour / static_cast<double>(threads) +
                              static_cast<double>(core::kMorselRecords));
  }
  state.counters["model_speedup"] = model;
  if (scheduler == core::ShardScheduler::Stealing) {
    const auto* claimed = snapshot.counter("pipeline.morsel.claimed");
    const auto* stolen = snapshot.counter("pipeline.morsel.stolen");
    const double c = claimed != nullptr ? static_cast<double>(claimed->value) : 0;
    const double s = stolen != nullptr ? static_cast<double>(stolen->value) : 0;
    state.counters["stolen_share"] = c + s > 0 ? s / (c + s) : 0.0;
  }
}

void BM_PipelineSkewedStatic(benchmark::State& state) {
  run_skewed_pipeline(state, core::ShardScheduler::Static);
}
BENCHMARK(BM_PipelineSkewedStatic)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_PipelineSkewedStealing(benchmark::State& state) {
  run_skewed_pipeline(state, core::ShardScheduler::Stealing);
}
BENCHMARK(BM_PipelineSkewedStealing)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- Task-graph scheduler: hour overlap vs the hour-barrier baseline ---
//
// The skewed workload is encoded once into an on-disk compressed store,
// so each hour carries a real decode cost — the stage the task graph
// overlaps with the previous hour's observe/fan-in. Both variants drive
// the same observe_async(hour_loaders) entry point; under Stealing it
// degenerates to a synchronous decode + observe per hour (the
// hour-level barrier), under Graph each hour becomes a task subgraph
// and up to max_inflight_hours hours run concurrently. Reports are
// byte-identical across the two (pinned by scheduler_graph_test).
//
// Wall time only separates the variants on a multi-core box (on a
// single-core runner the lanes time-slice and both collapse to the
// sequential cost), so each run also reports machine-independent
// overlap evidence straight from the scheduler's instrumentation:
//   inflight_max   pipeline.task.inflight_hours high-water — >= 2 means
//                  hour N+1's decode/classify ran before hour N folded
//                  (graph only; the barrier variants never exceed 1)
//   spawned        task-graph tasks created per run
//   stolen_share   fraction of tasks that ran off their preferred lane
//   queue_max      task.queue_depth high-water (ready-task backlog)
//   overlap_ms     pipeline.overlap stage per iteration: hour lifetime
//                  from subgraph submission to fold — under the barrier
//                  this equals the hour's serial cost; under the graph
//                  it grows with admission while *total* time shrinks,
//                  the signature of hours spent concurrently in flight.
void run_taskgraph_pipeline(benchmark::State& state,
                            core::ShardScheduler scheduler) {
  const auto& w = skewed_workload();
  static const util::TempDir graph_dir;
  static const telescope::FlowTupleStore store = [] {
    telescope::FlowTupleStore s(graph_dir.path());
    s.set_write_format(telescope::StoreFormat::Compressed);
    for (const auto& b : skewed_workload().batches) s.put(b);
    return s;
  }();

  core::PipelineOptions options = bench_study_config().pipeline;
  const unsigned threads = static_cast<unsigned>(state.range(0));
  options.threads = threads;
  options.scheduler = scheduler;
  const auto intervals = store.intervals();
  obs::Registry::instance().reset();
  for (auto _ : state) {
    core::AnalysisPipeline pipeline(w.scenario.inventory, options);
    for (const int interval : intervals) {
      pipeline.observe_async(store.hour_loaders(interval, threads));
    }
    pipeline.drain();
    auto report = pipeline.finalize();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_packets));
  state.counters["threads"] = static_cast<double>(threads);

  const auto snapshot = obs::Registry::instance().snapshot();
  const auto* inflight = snapshot.gauge("pipeline.task.inflight_hours");
  const auto* depth = snapshot.gauge("task.queue_depth");
  const auto* spawned = snapshot.counter("pipeline.task.spawned");
  const auto* stolen = snapshot.counter("pipeline.task.stolen");
  state.counters["inflight_max"] =
      inflight != nullptr ? static_cast<double>(inflight->max) : 0.0;
  state.counters["queue_max"] =
      depth != nullptr ? static_cast<double>(depth->max) : 0.0;
  const double spawn_count =
      spawned != nullptr ? static_cast<double>(spawned->value) /
                               static_cast<double>(state.iterations())
                         : 0.0;
  state.counters["spawned"] = spawn_count;
  state.counters["stolen_share"] =
      spawn_count > 0 && stolen != nullptr
          ? static_cast<double>(stolen->value) /
                static_cast<double>(state.iterations()) / spawn_count
          : 0.0;
  const auto* overlap = snapshot.stage("pipeline.overlap");
  state.counters["overlap_ms"] =
      overlap != nullptr ? static_cast<double>(overlap->total_ns) / 1e6 /
                               static_cast<double>(state.iterations())
                         : 0.0;
}

void BM_TaskGraphPipeline(benchmark::State& state) {
  run_taskgraph_pipeline(state, core::ShardScheduler::Graph);
}
BENCHMARK(BM_TaskGraphPipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_TaskGraphPipelineBarrier(benchmark::State& state) {
  run_taskgraph_pipeline(state, core::ShardScheduler::Stealing);
}
BENCHMARK(BM_TaskGraphPipelineBarrier)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- Compressed block storage: encode / decode / predicate pushdown ----
//
// The corpus is the heavy-hitter workload (skewed_workload): darknet
// traffic is scanner-dominated, and the column codec's src-keyed modes
// exist precisely because a scanner re-uses one TTL / one target port /
// one packet shape across millions of records. Counters:
//   ratio      raw bytes (25 B/record) / compressed bytes
//   skip_pct   blocks skipped undecoded by the hour-window predicate
// Compare BM_CompressedDecode items/s against BM_FlowtupleDecodeColumns
// (the raw ".ift" columnar decode) for the decode-throughput delta.

struct CompressedCorpus {
  std::vector<std::string> blobs;  ///< one encoded ".iftc" image per hour
  std::uint64_t records = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t compressed_bytes = 0;
};

const CompressedCorpus& compressed_corpus() {
  static const CompressedCorpus instance = [] {
    CompressedCorpus c;
    for (const auto& b : skewed_workload().batches) {
      std::string blob;
      net::CompressedFlowCodec::encode(blob, b);
      c.records += b.size();
      c.raw_bytes += b.size() * net::FlowTupleCodec::kRecordBytes;
      c.compressed_bytes += blob.size();
      c.blobs.push_back(std::move(blob));
    }
    return c;
  }();
  return instance;
}

void BM_CompressedEncode(benchmark::State& state) {
  const auto& w = skewed_workload();
  const auto& c = compressed_corpus();
  std::string blob;
  for (auto _ : state) {
    std::size_t bytes = 0;
    for (const auto& b : w.batches) {
      blob.clear();
      net::CompressedFlowCodec::encode(blob, b);
      bytes += blob.size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * c.records));
  state.counters["ratio"] = static_cast<double>(c.raw_bytes) /
                            static_cast<double>(c.compressed_bytes);
}
BENCHMARK(BM_CompressedEncode)->Unit(benchmark::kMillisecond);

void BM_CompressedDecode(benchmark::State& state) {
  const auto& c = compressed_corpus();
  for (auto _ : state) {
    std::size_t rows = 0;
    for (const auto& blob : c.blobs) {
      auto batch = net::CompressedFlowCodec::decode(blob);
      rows += batch.size();
      benchmark::DoNotOptimize(batch);
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * c.records));
  state.counters["ratio"] = static_cast<double>(c.raw_bytes) /
                            static_cast<double>(c.compressed_bytes);
}
BENCHMARK(BM_CompressedDecode)->Unit(benchmark::kMillisecond);

// Hour-windowed replay over an on-disk compressed store — the TB-scale
// query pattern pushdown exists for. The predicate selects a 14-hour
// window out of 143; every block outside it is skipped off the header
// summary without touching its payload. items/s counts every record the
// store holds (the effective replay rate a windowed study observes).
void BM_CompressedScanPushdown(benchmark::State& state) {
  const auto& w = skewed_workload();
  const auto& c = compressed_corpus();
  static const util::TempDir scan_dir;
  static const telescope::FlowTupleStore store = [] {
    telescope::FlowTupleStore s(scan_dir.path());
    s.set_write_format(telescope::StoreFormat::Compressed);
    for (const auto& b : skewed_workload().batches) s.put(b);
    return s;
  }();

  const int mid = static_cast<int>(w.batches.size() / 2);
  net::BlockPredicate predicate;
  predicate.hour_min = mid;
  predicate.hour_max = mid + 13;
  telescope::ScanOptions options;
  options.predicate = predicate;
  options.readers = static_cast<std::size_t>(state.range(0));

  obs::Registry::instance().reset();
  for (auto _ : state) {
    std::uint64_t rows = 0;
    store.scan(
        [&rows](const net::FlowBatch& batch) { rows += batch.size(); },
        options);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * c.records));
  state.counters["readers"] = static_cast<double>(state.range(0));

  const auto snapshot = obs::Registry::instance().snapshot();
  const auto counter = [&](const char* name) {
    const auto* sample = snapshot.counter(name);
    return sample == nullptr ? 0.0 : static_cast<double>(sample->value);
  };
  const double skipped = counter("store.blocks.skipped");
  const double decoded = counter("store.blocks.decoded");
  state.counters["skip_pct"] =
      skipped + decoded > 0 ? 100.0 * skipped / (skipped + decoded) : 0.0;
}
BENCHMARK(BM_CompressedScanPushdown)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Streaming ingest: the daemon's follow loop over an on-disk store --
//
// The bench-default workload is encoded once into an on-disk flowtuple
// store; each iteration streams it end to end through a StreamingStudy
// (watermark admission, periodic snapshot publication, cold-profile
// eviction). Arg(0) = snapshot cadence in admitted hours (0 = final
// report only); Arg(1) = eviction idle threshold in hours (0 = never
// evict). The unknown-profile promotion floor is lowered to 1 so every
// background-noise source mints a profile — the population the eviction
// bound exists for. The memory story is machine-independent:
//   hot_profiles_end   unknown-source profiles still resident in the
//                      hot map after 143 hours — the steady-state
//                      working set. Bounded with eviction on; equal to
//                      the whole source population with it off.
//   profiles_evicted   cumulative hot -> frozen moves
//   snapshot_ms        stream.snapshot stage time per full-run iteration
//                      (the price of a cadence, paid off the hot path)
void BM_StreamingIngest(benchmark::State& state) {
  const auto& w = bench_workload();
  static const util::TempDir stream_dir;
  static const telescope::FlowTupleStore store = [] {
    telescope::FlowTupleStore s(stream_dir.path());
    for (const auto& b : bench_workload().batches) s.put(b);
    return s;
  }();

  core::PipelineOptions pipeline_options = bench_study_config().pipeline;
  pipeline_options.unknown_profile_hourly_floor = 1;
  core::StreamOptions stream_options;
  stream_options.snapshot_every = static_cast<int>(state.range(0));
  stream_options.evict_after_hours = static_cast<int>(state.range(1));

  obs::Registry::instance().reset();
  double evicted = 0, snapshots = 0, hot_end = 0;
  for (auto _ : state) {
    core::StreamingStudy stream(w.scenario.inventory, store,
                                pipeline_options, stream_options);
    stream.poll_once();
    auto report = stream.finalize();
    benchmark::DoNotOptimize(report);
    evicted = static_cast<double>(stream.stats().profiles_evicted);
    snapshots = static_cast<double>(stream.stats().snapshots_published);
    hot_end = static_cast<double>(stream.pipeline().hot_unknown_profiles());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_packets));
  state.counters["snapshot_every"] = static_cast<double>(state.range(0));
  state.counters["evict_after"] = static_cast<double>(state.range(1));
  state.counters["profiles_evicted"] = evicted;
  state.counters["hot_profiles_end"] = hot_end;
  state.counters["snapshots"] = snapshots;

  const auto snapshot = obs::Registry::instance().snapshot();
  const auto stage_ms = [&](const char* name) {
    const auto* s = snapshot.stage(name);
    return s == nullptr ? 0.0
                        : static_cast<double>(s->total_ns) / 1e6 /
                              static_cast<double>(state.iterations());
  };
  state.counters["snapshot_ms"] = stage_ms("stream.snapshot");
  state.counters["admit_ms"] = stage_ms("stream.admit");
  state.counters["decode_ms"] = stage_ms("store.decode");
}
BENCHMARK(BM_StreamingIngest)
    ->Args({0, 6})
    ->Args({12, 6})
    ->Args({24, 6})
    ->Args({24, 0})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- Snapshot query server: Zipf-keyed load over live ingest -----------
//
// A ReportServer answers a single keep-alive HTTP client whose targets
// are drawn Zipf(s=1) over a few hundred distinct endpoints — summary /
// top-ports / healthz dominate, then a per-country, per-ISP and
// per-device tail. That skew is the operator-dashboard access pattern
// the sharded LRU exists for: the hot head should hit the cache, the
// tail should exercise the render path. Arg(0) = server worker threads;
// Arg(1) = 1 runs a concurrent streaming-ingest thread that keeps
// republishing snapshots (each epoch bump lazily invalidates the whole
// cache) while queries run, 0 serves one frozen snapshot.
//
// items/s is QPS (one item per request). Counters:
//   p50_us / p99_us   client-observed request latency percentiles
//   cache_hit_pct     LRU hit rate across the run
//   epochs            snapshots republished while measuring (ingest=1)

/// Percent-encodes everything outside the URL-unreserved set, so ISP
/// and country names with spaces survive the request line.
std::string percent_encode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (const unsigned char c : raw) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                            c == '_' || c == '~' || c == '/';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

/// The query universe, ordered hot-to-cold for the Zipf head to land on
/// the dashboard staples.
const std::vector<std::string>& serve_targets() {
  static const std::vector<std::string> instance = [] {
    const auto& db = bench_workload().scenario.inventory;
    std::vector<std::string> targets;
    targets.emplace_back("/report/summary");
    for (const int k : {10, 5, 20, 3}) {
      targets.push_back("/report/ports/top?k=" + std::to_string(k));
    }
    targets.emplace_back("/healthz");
    std::unordered_set<inventory::CountryId> countries;
    for (const auto& device : db.devices()) {
      if (countries.insert(device.country).second) {
        targets.push_back("/report/country/" +
                          percent_encode(db.country_name(device.country)));
      }
      if (countries.size() >= 24) break;
    }
    for (std::size_t i = 0; i < db.isps().size() && i < 32; ++i) {
      targets.push_back("/report/isp/" + percent_encode(db.isps()[i].name));
    }
    const std::size_t stride = std::max<std::size_t>(1, db.size() / 192);
    for (std::size_t i = 0; i < db.size(); i += stride) {
      targets.push_back("/report/device/" + db.devices()[i].ip.to_string() +
                        "/timeline");
    }
    return targets;
  }();
  return instance;
}

/// Zipf(s) over [0, n): precomputed CDF + binary search, sampled with
/// the project Rng so runs are replayable.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  std::size_t next(util::Rng& rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

void BM_ServeQuery(benchmark::State& state) {
  const auto& w = bench_workload();
  // The frozen baseline snapshot (epoch 1): the batch pipeline's final
  // report over the whole workload.
  static const auto baseline = [] {
    core::AnalysisPipeline pipeline(bench_workload().scenario.inventory,
                                    bench_study_config().pipeline);
    for (const auto& b : bench_workload().batches) pipeline.observe(b);
    return std::make_shared<const core::Report>(pipeline.finalize());
  }();

  std::atomic<std::shared_ptr<const serve::Snapshot>> slot{
      std::make_shared<const serve::Snapshot>(serve::Snapshot{1, baseline})};

  const bool with_ingest = state.range(1) != 0;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> published{0};
  std::thread ingest;
  if (with_ingest) {
    // Replays the store through fresh StreamingStudies for as long as the
    // measurement runs, publishing every new epoch into the provider slot
    // (offset by the epochs of earlier passes so the stamp stays
    // monotonic — regressing it would resurrect stale cache entries).
    ingest = std::thread([&w, &slot, &stop, &published] {
      core::PipelineOptions pipeline_options = bench_study_config().pipeline;
      core::StreamOptions stream_options;
      stream_options.snapshot_every = 8;
      std::uint64_t base = 1;  // the frozen baseline owns epoch 1
      while (!stop.load(std::memory_order_acquire)) {
        util::TempDir dir;
        telescope::FlowTupleStore store(dir.path());
        core::StreamingStudy stream(w.scenario.inventory, store,
                                    pipeline_options, stream_options);
        std::uint64_t last = 0;
        for (const auto& b : w.batches) {
          if (stop.load(std::memory_order_acquire)) break;
          store.put(b);
          stream.poll_once();
          const auto pub = stream.latest_published();
          if (pub != nullptr && pub->epoch != last) {
            last = pub->epoch;
            slot.store(std::make_shared<const serve::Snapshot>(serve::Snapshot{
                base + pub->epoch,
                std::shared_ptr<const core::Report>(pub, &pub->report)}));
            published.fetch_add(1, std::memory_order_relaxed);
          }
        }
        base += last;
      }
    });
  }

  obs::Registry::instance().reset();
  serve::ServerOptions options;
  options.port = 0;
  options.threads = static_cast<unsigned>(state.range(0));
  serve::ReportServer server(
      w.scenario.inventory,
      [&slot] { return *slot.load(std::memory_order_acquire); }, options);
  server.start();

  const auto& targets = serve_targets();
  const ZipfSampler zipf(targets.size(), 1.0);
  util::Rng rng(11);
  serve::HttpClient client(server.port());
  std::vector<std::uint64_t> latencies_ns;
  latencies_ns.reserve(1 << 16);
  for (auto _ : state) {
    const auto& target = targets[zipf.next(rng)];
    const auto t0 = std::chrono::steady_clock::now();
    auto response = client.get(target);
    const auto t1 = std::chrono::steady_clock::now();
    if (!response) {
      // Idle-timeout close mid-run; reconnect and keep going.
      client = serve::HttpClient(server.port());
      continue;
    }
    latencies_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    benchmark::DoNotOptimize(response->status);
  }
  stop.store(true, std::memory_order_release);
  if (ingest.joinable()) ingest.join();
  const auto cache = server.cache_stats();
  server.stop();

  std::sort(latencies_ns.begin(), latencies_ns.end());
  const auto percentile_us = [&latencies_ns](double q) {
    if (latencies_ns.empty()) return 0.0;
    const auto index = std::min(
        latencies_ns.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies_ns.size())));
    return static_cast<double>(latencies_ns[index]) / 1e3;
  };
  state.counters["p50_us"] = percentile_us(0.50);
  state.counters["p99_us"] = percentile_us(0.99);
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  state.counters["cache_hit_pct"] =
      lookups > 0 ? 100.0 * static_cast<double>(cache.hits) / lookups : 0.0;
  state.counters["epochs"] =
      static_cast<double>(published.load(std::memory_order_relaxed));
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeQuery)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// --- Phase-based adversarial scenario engine ---------------------------
//
// One entry per built-in scenario (Arg(0) indexes builtin_scenario_names
// order; the label names it). Three stages of the scenario lifecycle:
//   BM_ScenarioPlan      ctor cost — inventory synthesis + campaign
//                        planning + truth-ledger construction
//   BM_ScenarioEmit      packet emission (base synth + campaign hooks);
//                        items/s is emitted packets
//   BM_ScenarioBatchRun  the full driver: write the hourly store (hostile
//                        hours included), batch-analyze with quarantine,
//                        render, and check every ground-truth claim. The
//                        `violations` counter must read 0.000 — a nonzero
//                        value here is a correctness regression surfacing
//                        in the perf log.

const std::vector<workload::ScenarioScript>& builtin_scripts() {
  static const auto instance = [] {
    std::vector<workload::ScenarioScript> scripts;
    for (const auto& name : workload::builtin_scenario_names()) {
      scripts.push_back(*workload::builtin_scenario(name));
    }
    return scripts;
  }();
  return instance;
}

void BM_ScenarioPlan(benchmark::State& state) {
  const auto& script =
      builtin_scripts()[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    workload::ScenarioEngine engine(script);
    benchmark::DoNotOptimize(engine.truth().campaign_packets);
  }
  state.SetLabel(script.name);
}
BENCHMARK(BM_ScenarioPlan)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioEmit(benchmark::State& state) {
  const auto& script =
      builtin_scripts()[static_cast<std::size_t>(state.range(0))];
  const workload::ScenarioEngine engine(script);
  std::uint64_t packets = 0;
  for (auto _ : state) {
    packets = 0;
    engine.emit([&packets](const net::PacketRecord&) { ++packets; });
    benchmark::DoNotOptimize(packets);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * packets));
  state.SetLabel(script.name);
}
BENCHMARK(BM_ScenarioEmit)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioBatchRun(benchmark::State& state) {
  const auto& script =
      builtin_scripts()[static_cast<std::size_t>(state.range(0))];
  const workload::ScenarioEngine engine(script);
  std::uint64_t packets = 0;
  std::size_t violations = 0;
  std::size_t hostile = 0;
  for (auto _ : state) {
    util::TempDir dir;
    const auto run = core::run_scenario(engine, dir.path());
    packets = run.report.total_packets + run.report.unattributed_packets;
    violations = core::check_scenario(engine, run).size();
    hostile = static_cast<std::size_t>(run.hours_corrupt);
    benchmark::DoNotOptimize(run.rendered);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * packets));
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["hostile_hours"] = static_cast<double>(hostile);
  state.SetLabel(script.name);
}
BENCHMARK(BM_ScenarioBatchRun)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
