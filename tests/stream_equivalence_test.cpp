// Streaming-vs-batch equivalence: a StreamingStudy following a store
// while the rotating writer publishes hourly files from another thread
// must end on a report byte-identical to the batch pipeline over the
// same files — at every thread count, with eviction enabled, on both a
// normal and a heavy-hitter-dominated workload. Mid-stream snapshots
// must grow monotonically, and below-watermark arrivals must be dropped
// as late rather than admitted out of order. Every snapshot published
// along the way must equal a batch run over exactly the hours admitted
// before it. The concurrent tests pit the writer's atomic rename
// publication against the reader's directory polls, and the Graph cases
// consolidate on a scheduler lane; run under TSan (ctest label `tsan`)
// for full value.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/iotscope.hpp"
#include "core/report_text.hpp"
#include "core/stream.hpp"
#include "telescope/store.hpp"
#include "util/io.hpp"
#include "workload/engine.hpp"
#include "workload/rotating_writer.hpp"
#include "workload/synth.hpp"

namespace iotscope::core {
namespace {

workload::ScenarioConfig stream_config(double heavy_hitter_share = 0.0) {
  workload::ScenarioConfig config;
  config.inventory_scale = 0.005;
  config.traffic_scale = 0.001;
  config.noise_ratio = 0.05;
  config.heavy_hitter_share = heavy_hitter_share;
  return config;
}

PipelineOptions stream_pipeline_options(unsigned threads) {
  PipelineOptions options;
  options.threads = threads;
  // Floor 1 promotes even one-shot noise sources into unknown-source
  // profiles. Noise IPs are drawn fresh per packet, so most profiles go
  // idle immediately — the eviction path is guaranteed to run (asserted
  // below) while byte-identity must still hold.
  options.unknown_profile_hourly_floor = 1;
  return options;
}

StreamOptions tight_stream_options() {
  StreamOptions options;
  options.snapshot_every = 10;
  options.evict_after_hours = 2;
  options.poll_interval = std::chrono::milliseconds(1);
  return options;
}

std::string render_everything(const Report& report,
                              const inventory::IoTDeviceDatabase& inventory) {
  const auto character = characterize(report, inventory);
  return render_inference_report(report, character, inventory) +
         render_traffic_report(report, inventory);
}

/// The batch golden over an already-written store: plain for_each into a
/// sequential pipeline with the same promotion floor.
std::string batch_golden(const workload::Scenario& scenario,
                         const telescope::FlowTupleStore& store) {
  AnalysisPipeline pipeline(scenario.inventory, stream_pipeline_options(1));
  store.for_each(
      [&pipeline](const net::FlowBatch& batch) { pipeline.observe(batch); });
  return render_everything(pipeline.finalize(), scenario.inventory);
}

struct StreamRun {
  Report report;
  StreamStats stats;
  std::string final_snapshot_render;  ///< latest_snapshot() after finalize
};

/// Follows `store` on the calling thread while a writer thread rotates
/// the scenario's hours in, then finalizes. The stop predicate fires
/// only once the writer is done AND a poll found nothing, so every
/// published hour is admitted.
StreamRun stream_concurrently(const workload::Scenario& scenario,
                              const workload::ScenarioConfig& config,
                              const telescope::FlowTupleStore& store,
                              unsigned threads) {
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    workload::write_rotating(scenario, config, store);
    writer_done.store(true, std::memory_order_release);
  });

  StreamingStudy stream(scenario.inventory, store,
                        stream_pipeline_options(threads),
                        tight_stream_options());
  stream.follow(
      [&writer_done] { return writer_done.load(std::memory_order_acquire); });
  writer.join();

  StreamRun run;
  run.stats = stream.stats();
  run.report = stream.finalize();
  const auto latest = stream.latest_snapshot();
  run.final_snapshot_render =
      latest ? render_everything(*latest, scenario.inventory) : std::string();
  return run;
}

TEST(StreamEquivalenceTest, FinalSnapshotMatchesBatchAtEveryThreadCount) {
  const auto config = stream_config();
  const auto scenario = workload::build_scenario(config);

  // Golden from a dedicated pre-written store; the rotating writer is
  // deterministic in the seed, so every concurrent run below publishes
  // the identical file set.
  util::TempDir golden_dir;
  telescope::FlowTupleStore golden_store(golden_dir.path());
  workload::write_rotating(scenario, config, golden_store);
  const std::string golden = batch_golden(scenario, golden_store);
  const std::size_t hour_count = golden_store.intervals().size();

  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    SCOPED_TRACE(threads);
    util::TempDir dir;
    telescope::FlowTupleStore store(dir.path());
    const auto run = stream_concurrently(scenario, config, store, threads);
    EXPECT_EQ(render_everything(run.report, scenario.inventory), golden);
    EXPECT_EQ(run.final_snapshot_render, golden);
    EXPECT_EQ(run.stats.hours_admitted, hour_count);
    EXPECT_EQ(run.stats.hours_late, 0u);
    EXPECT_GT(run.stats.profiles_evicted, 0u)
        << "the floor-1 noise profiles must exercise eviction";
  }
}

TEST(StreamEquivalenceTest, HeavyHitterWorkloadStreamsIdentically) {
  // 80 % of every hour from one aggressive non-inventory source: the
  // partition skew that used to collapse static scheduling, now also
  // streamed with eviction on.
  const auto config = stream_config(/*heavy_hitter_share=*/0.8);
  const auto scenario = workload::build_scenario(config);

  util::TempDir golden_dir;
  telescope::FlowTupleStore golden_store(golden_dir.path());
  workload::write_rotating(scenario, config, golden_store);
  const std::string golden = batch_golden(scenario, golden_store);
  const std::size_t hour_count = golden_store.intervals().size();

  for (const unsigned threads : {2u, 0u}) {
    SCOPED_TRACE(threads);
    util::TempDir dir;
    telescope::FlowTupleStore store(dir.path());
    const auto run = stream_concurrently(scenario, config, store, threads);
    EXPECT_EQ(render_everything(run.report, scenario.inventory), golden);
    EXPECT_EQ(run.stats.hours_admitted, hour_count);
    EXPECT_EQ(run.stats.hours_late, 0u);
  }
}

TEST(StreamEquivalenceTest, CompressedRotatingStoreStreamsIdentically) {
  // The rotating writer publishing compressed ".iftc" hours must be
  // invisible to the follower: same watcher admission, same report
  // bytes as the raw-format batch golden.
  const auto config = stream_config();
  const auto scenario = workload::build_scenario(config);

  util::TempDir golden_dir;
  telescope::FlowTupleStore golden_store(golden_dir.path());
  workload::write_rotating(scenario, config, golden_store);
  const std::string golden = batch_golden(scenario, golden_store);
  const std::size_t hour_count = golden_store.intervals().size();

  for (const unsigned threads : {1u, 0u}) {
    SCOPED_TRACE(threads);
    util::TempDir dir;
    telescope::FlowTupleStore store(dir.path());
    store.set_write_format(telescope::StoreFormat::Compressed,
                           /*block_records=*/512);
    const auto run = stream_concurrently(scenario, config, store, threads);
    EXPECT_EQ(render_everything(run.report, scenario.inventory), golden);
    EXPECT_EQ(run.final_snapshot_render, golden);
    EXPECT_EQ(run.stats.hours_admitted, hour_count);
    EXPECT_EQ(run.stats.hours_late, 0u);

    // The writer really did publish columnar files, not raw ones.
    std::size_t iftc = 0, ift = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
      const auto ext = entry.path().extension();
      if (ext == ".iftc") ++iftc;
      if (ext == ".ift") ++ift;
    }
    EXPECT_EQ(iftc, hour_count);
    EXPECT_EQ(ift, 0u);
  }
}

TEST(StreamEquivalenceTest, EvictionIsInvisibleInTheFinalReport) {
  // Aggressive eviction (idle for one hour) against no eviction at all,
  // over the same files: the frozen-archive fold must reproduce the
  // unevicted report bytes exactly.
  const auto config = stream_config();
  const auto scenario = workload::build_scenario(config);
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  workload::write_rotating(scenario, config, store);

  auto run_with_evict_after = [&](int evict_after_hours) {
    auto options = tight_stream_options();
    options.evict_after_hours = evict_after_hours;
    StreamingStudy stream(scenario.inventory, store,
                          stream_pipeline_options(1), options);
    stream.poll_once();
    const Report report = stream.finalize();
    return std::make_pair(render_everything(report, scenario.inventory),
                          stream.stats().profiles_evicted);
  };

  const auto [evicted_render, evicted_count] = run_with_evict_after(1);
  const auto [unevicted_render, unevicted_count] = run_with_evict_after(0);
  EXPECT_GT(evicted_count, 0u);
  EXPECT_EQ(unevicted_count, 0u);
  EXPECT_EQ(evicted_render, unevicted_render);
}

TEST(StreamEquivalenceTest, CorruptMidStreamHoursQuarantineByteIdentically) {
  // The malformed built-in publishes three hostile hours (torn block,
  // truncated record, hostile header) with the same atomic rename as
  // real hours, so a concurrent follower hits them mid-stream at full
  // speed. It must quarantine all three and still end byte-identical to
  // a batch run that skipped the same hours.
  const auto script = workload::builtin_scenario("malformed");
  ASSERT_TRUE(script.has_value());
  const workload::ScenarioEngine engine(*script);
  const auto& inventory = engine.scenario().inventory;

  util::TempDir golden_dir;
  telescope::FlowTupleStore golden_store(golden_dir.path());
  engine.write_to_store(golden_store);
  AnalysisPipeline pipeline(inventory, stream_pipeline_options(1));
  std::size_t skipped = 0;
  for (const int interval : golden_store.intervals()) {
    try {
      if (auto batch = golden_store.get_batch(interval)) {
        pipeline.observe(*batch);
      }
    } catch (const util::IoError&) {
      ++skipped;
    }
  }
  ASSERT_EQ(skipped, 3u);
  const std::string golden =
      render_everything(pipeline.finalize(), inventory);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    util::TempDir dir;
    telescope::FlowTupleStore store(dir.path());
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      engine.write_to_store(store);
      writer_done.store(true, std::memory_order_release);
    });
    StreamingStudy stream(inventory, store, stream_pipeline_options(threads),
                          tight_stream_options());
    stream.follow([&writer_done] {
      return writer_done.load(std::memory_order_acquire);
    });
    writer.join();
    EXPECT_EQ(stream.stats().hours_corrupt, 3u);
    EXPECT_EQ(stream.stats().hours_late, 0u);
    EXPECT_EQ(stream.stats().hours_admitted,
              static_cast<std::uint64_t>(util::AnalysisWindow::kHours));
    EXPECT_EQ(render_everything(stream.finalize(), inventory), golden);
  }
}

TEST(StreamSnapshotTest, MidStreamSnapshotsGrowMonotonically) {
  // Deterministic pacing: capture all hours first, publish them into the
  // store one at a time, and poll after each publication — every
  // periodic snapshot boundary is observed exactly once.
  const auto config = stream_config();
  const auto scenario = workload::build_scenario(config);
  std::vector<net::FlowBatch> batches;
  telescope::TelescopeCapture capture(
      telescope::DarknetSpace(config.darknet),
      [&batches](net::FlowBatch&& batch) {
        batches.push_back(std::move(batch));
      });
  workload::synthesize_into(scenario, config, capture);
  ASSERT_GT(batches.size(), 20u);

  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  StreamingStudy stream(scenario.inventory, store, stream_pipeline_options(1),
                        tight_stream_options());

  std::shared_ptr<const Report> previous;
  int previous_watermark = 0;
  std::size_t snapshots_seen = 0;
  for (const auto& batch : batches) {
    store.put(batch);
    ASSERT_EQ(stream.poll_once(), 1u);
    EXPECT_EQ(stream.watermark(), batch.interval + 1);
    EXPECT_GT(stream.watermark(), previous_watermark);
    previous_watermark = stream.watermark();

    const auto snapshot = stream.latest_snapshot();
    if (snapshot && snapshot != previous) {
      ++snapshots_seen;
      if (previous) {
        // Cumulative quantities never move backwards between snapshots.
        EXPECT_GE(snapshot->total_packets, previous->total_packets);
        EXPECT_GE(snapshot->discovered_total(), previous->discovered_total());
        EXPECT_GE(snapshot->devices.size(), previous->devices.size());
        EXPECT_GE(snapshot->tcp_scan_total, previous->tcp_scan_total);
        EXPECT_GE(snapshot->backscatter_total, previous->backscatter_total);
      }
      previous = snapshot;
    }
  }
  EXPECT_EQ(snapshots_seen,
            batches.size() / static_cast<std::size_t>(
                                 tight_stream_options().snapshot_every));
  EXPECT_EQ(stream.stats().snapshots_published, snapshots_seen);

  // The stream's end state is the batch report.
  const std::string golden = batch_golden(scenario, store);
  EXPECT_EQ(render_everything(stream.finalize(), scenario.inventory), golden);
}

TEST(StreamSnapshotTest, LatestSnapshotIsSafeToReadDuringFollow) {
  // The publication race this pins down: follow()'s snapshot publication
  // on the streaming thread vs latest_snapshot()/latest_published() on
  // dashboard/server threads. Publication must be a single atomic store
  // of an epoch+report bundle, so a reader can only ever observe a
  // fully-built report whose epoch and packet totals never move
  // backwards. Run under TSan (ctest label `tsan`) for full value —
  // a plain shared_ptr store here is a data race TSan flags instantly.
  const auto config = stream_config();
  const auto scenario = workload::build_scenario(config);
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    workload::write_rotating(scenario, config, store);
    writer_done.store(true, std::memory_order_release);
  });

  auto options = tight_stream_options();
  options.snapshot_every = 2;  // many publications → many racing reads
  StreamingStudy stream(scenario.inventory, store, stream_pipeline_options(2),
                        options);

  // Violations are tallied instead of EXPECTed inside the reader threads
  // (gtest assertions are not thread-safe).
  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> epoch_regressions{0};
  std::atomic<std::uint64_t> packet_regressions{0};
  std::atomic<std::uint64_t> bundle_mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      std::uint64_t last_packets = 0;
      while (!stop_readers.load(std::memory_order_acquire)) {
        if (const auto published = stream.latest_published()) {
          if (published->epoch < last_epoch) ++epoch_regressions;
          if (published->report.total_packets < last_packets) {
            ++packet_regressions;
          }
          last_epoch = published->epoch;
          last_packets = published->report.total_packets;
          // The aliasing accessor must hand out a report at least as new
          // as the bundle we just saw (totals are cumulative).
          const auto aliased = stream.latest_snapshot();
          if (!aliased || aliased->total_packets <
                              published->report.total_packets) {
            ++bundle_mismatches;
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  stream.follow(
      [&writer_done] { return writer_done.load(std::memory_order_acquire); });
  writer.join();
  const Report final_report = stream.finalize();
  stop_readers.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_EQ(packet_regressions.load(), 0u);
  EXPECT_EQ(bundle_mismatches.load(), 0u);
  EXPECT_GT(stream.stats().snapshots_published, 0u);

  // finalize() published the end state as the newest epoch: the epoch
  // accessor and the published bundle agree, and the bundle's report is
  // the finalized one.
  EXPECT_EQ(stream.epoch(), stream.stats().snapshots_published);
  const auto published = stream.latest_published();
  ASSERT_TRUE(published);
  EXPECT_EQ(published->epoch, stream.epoch());
  EXPECT_EQ(render_everything(published->report, scenario.inventory),
            render_everything(final_report, scenario.inventory));
}

TEST(StreamWatermarkTest, BelowWatermarkArrivalsAreDroppedAsLate) {
  const auto config = stream_config();
  const auto scenario = workload::build_scenario(config);
  std::vector<net::FlowBatch> batches;
  telescope::TelescopeCapture capture(
      telescope::DarknetSpace(config.darknet),
      [&batches](net::FlowBatch&& batch) {
        batches.push_back(std::move(batch));
      });
  workload::synthesize_into(scenario, config, capture);
  ASSERT_GT(batches.size(), 8u);

  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  StreamingStudy stream(scenario.inventory, store, stream_pipeline_options(1),
                        tight_stream_options());

  // Hour 5 lands first: watermark jumps past the earlier hours.
  store.put(batches[5]);
  EXPECT_EQ(stream.poll_once(), 1u);
  EXPECT_EQ(stream.watermark(), batches[5].interval + 1);

  // Hour 3 surfaces afterwards — below the watermark, dropped as late.
  store.put(batches[3]);
  EXPECT_EQ(stream.poll_once(), 0u);
  EXPECT_EQ(stream.stats().hours_late, 1u);
  EXPECT_EQ(stream.watermark(), batches[5].interval + 1);

  // Hour 7 is above the watermark and admits normally.
  store.put(batches[7]);
  EXPECT_EQ(stream.poll_once(), 1u);
  EXPECT_EQ(stream.stats().hours_admitted, 2u);
  EXPECT_EQ(stream.stats().hours_late, 1u);
  EXPECT_EQ(stream.watermark(), batches[7].interval + 1);

  // The late hour's packets are genuinely absent from the report.
  const auto report = stream.finalize();
  EXPECT_EQ(report.total_packets + report.unattributed_packets,
            batches[5].total_packets() + batches[7].total_packets());
}

// ------------------------------------------------ epoch by epoch

/// Renders of fresh batch pipelines over the first k hour files of
/// `store` (entry k-1), each finalized on its own: the goldens for the
/// snapshot published after k admitted hours. Hours that fail to decode
/// are skipped, as the stream quarantines them.
std::vector<std::string> prefix_goldens(
    const inventory::IoTDeviceDatabase& inventory,
    const telescope::FlowTupleStore& store) {
  std::vector<net::FlowBatch> hours;
  for (const int interval : store.intervals()) {
    net::FlowBatch batch;
    batch.interval = interval;
    try {
      if (auto loaded = store.get_batch(interval)) batch = std::move(*loaded);
    } catch (const util::IoError&) {
    }
    hours.push_back(std::move(batch));
  }
  std::vector<std::string> goldens;
  for (std::size_t k = 1; k <= hours.size(); ++k) {
    AnalysisPipeline pipeline(inventory, stream_pipeline_options(1));
    for (std::size_t h = 0; h < k; ++h) pipeline.observe(hours[h]);
    goldens.push_back(render_everything(pipeline.finalize(), inventory));
  }
  return goldens;
}

/// The store's hour files in interval order (zero-padded names sort by
/// interval), hostile ones included.
std::vector<std::filesystem::path> hour_files(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().front() != '.') {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

class EpochEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EpochEquivalenceTest, EverySnapshotMatchesABatchOverTheHoursSoFar) {
  // A consolidating publish folds the lanes into the merged state and
  // clears them. Dropping or double-counting one epoch in that fold
  // would survive a final-report comparison only by luck, and not this
  // one: after every publish the snapshot must render byte-identical to
  // a fresh batch over exactly the hours admitted before it.
  const auto script = workload::builtin_scenario(GetParam());
  ASSERT_TRUE(script.has_value());
  const workload::ScenarioEngine engine(*script);
  const auto& inventory = engine.scenario().inventory;
  util::TempDir source_dir;
  telescope::FlowTupleStore source(source_dir.path());
  engine.write_to_store(source);
  const auto files = hour_files(source_dir.path());
  const auto goldens = prefix_goldens(inventory, source);
  ASSERT_EQ(files.size(), goldens.size());

  for (const auto scheduler :
       {ShardScheduler::Stealing, ShardScheduler::Graph}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const int every : {1, 6}) {
        SCOPED_TRACE(testing::Message()
                     << "graph=" << (scheduler == ShardScheduler::Graph)
                     << " threads=" << threads << " every=" << every);
        util::TempDir dir;
        telescope::FlowTupleStore store(dir.path());
        auto pipeline_options = stream_pipeline_options(threads);
        pipeline_options.scheduler = scheduler;
        StreamOptions stream_options;
        stream_options.snapshot_every = every;
        stream_options.evict_after_hours = 1;
        StreamingStudy stream(inventory, store, pipeline_options,
                              stream_options);
        std::size_t mismatches = 0;
        for (std::size_t k = 1; k <= files.size(); ++k) {
          // A hard link appears complete in one step, as put()'s rename.
          std::filesystem::create_hard_link(
              files[k - 1], dir.path() / files[k - 1].filename());
          ASSERT_EQ(stream.poll_once(), 1u);
          if (k % static_cast<std::size_t>(every) != 0) continue;
          // Under Graph the publish runs in the hour's after-hook on a
          // lane; wait for it rather than drain, so later hours keep
          // overlapping as they do in follow().
          const std::uint64_t epoch = k / static_cast<std::size_t>(every);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(60);
          while (stream.epoch() < epoch &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          const auto published = stream.latest_published();
          ASSERT_TRUE(published);
          ASSERT_EQ(published->epoch, epoch);
          if (render_everything(published->report, inventory) !=
              goldens[k - 1]) {
            ADD_FAILURE() << "snapshot after " << k << " hours differs";
            if (++mismatches == 3) break;
          }
        }
        EXPECT_EQ(render_everything(stream.finalize(), inventory),
                  goldens.back());
        EXPECT_GT(stream.stats().profiles_evicted, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, EpochEquivalenceTest,
    ::testing::ValuesIn(workload::builtin_scenario_names()),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(StreamDiscoveryTest, SinkAnnouncesEachDeviceOnceAcrossPublishes) {
  // A publish clears the lanes, so a device seen again after it
  // re-enters its lane's new-device list; only the global discovered
  // set keeps it from being announced twice. Publishing after every
  // hour maximises those re-entries, and the announcements must still be
  // the batch run's, in its order.
  const auto config = stream_config();
  const auto scenario = workload::build_scenario(config);
  std::vector<net::FlowBatch> batches;
  telescope::TelescopeCapture capture(
      telescope::DarknetSpace(config.darknet),
      [&batches](net::FlowBatch&& batch) {
        batches.push_back(std::move(batch));
      });
  workload::synthesize_into(scenario, config, capture);

  std::vector<std::uint32_t> batch_order;
  {
    AnalysisPipeline pipeline(scenario.inventory, stream_pipeline_options(1));
    pipeline.set_discovery_sink([&batch_order](const Discovery& discovery) {
      batch_order.push_back(discovery.device);
    });
    for (const auto& batch : batches) pipeline.observe(batch);
    ASSERT_EQ(batch_order.size(), pipeline.finalize().discovered_total());
  }
  ASSERT_GT(batch_order.size(), 0u);

  for (const auto scheduler :
       {ShardScheduler::Stealing, ShardScheduler::Graph}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "graph=" << (scheduler == ShardScheduler::Graph)
                   << " threads=" << threads);
      auto options = stream_pipeline_options(threads);
      options.scheduler = scheduler;
      AnalysisPipeline pipeline(scenario.inventory, options);
      std::vector<std::uint32_t> announced;
      pipeline.set_discovery_sink([&announced](const Discovery& discovery) {
        announced.push_back(discovery.device);
      });
      std::size_t snapshots = 0;
      for (const auto& batch : batches) {
        // What StreamingStudy does with snapshot_every = 1: publish from
        // the after-hour hook (a scheduler lane under Graph).
        pipeline.observe_async(batch, [&](const net::FlowBatch&, bool ok) {
          if (!ok) return;
          pipeline.snapshot();
          ++snapshots;
        });
      }
      pipeline.drain();
      EXPECT_EQ(snapshots, batches.size());
      EXPECT_EQ(announced, batch_order);
    }
  }
}

}  // namespace
}  // namespace iotscope::core
