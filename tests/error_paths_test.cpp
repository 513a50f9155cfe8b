// Regression tests for the error paths of the concurrent machinery:
// a throwing shard task must surface from ThreadPool::run_indexed, a
// throwing analysis consumer must not deadlock run_study's bounded
// queue, and the prefetching store must join its reader on both visitor
// and decode errors. Every test here used to be a hang or a
// std::terminate. Run them under TSan (preset `tsan`) for full value.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/stream.hpp"
#include "core/study.hpp"
#include "net/block_codec.hpp"
#include "net/flowtuple.hpp"
#include "obs/metrics.hpp"
#include "telescope/store.hpp"
#include "util/bounded_queue.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace iotscope {
namespace {

// ------------------------------------------------------ parse_decimal

TEST(ParseDecimalTest, AcceptsPlainNonNegativeIntegers) {
  EXPECT_EQ(util::parse_decimal("0"), 0u);
  EXPECT_EQ(util::parse_decimal("7"), 7u);
  EXPECT_EQ(util::parse_decimal("65535"), 65535u);
  EXPECT_EQ(util::parse_decimal("18446744073709551615"),
            18446744073709551615ULL);
}

TEST(ParseDecimalTest, RejectsWhatStrtoulSilentlyCoerced) {
  // Every one of these used to slip through the CLI's strtoul/atof
  // paths as 0, a huge wrapped value, or a truncated prefix.
  EXPECT_FALSE(util::parse_decimal(""));
  EXPECT_FALSE(util::parse_decimal("abc"));
  EXPECT_FALSE(util::parse_decimal("-3"));     // strtoul wrapped this
  EXPECT_FALSE(util::parse_decimal("+3"));
  EXPECT_FALSE(util::parse_decimal("1e3"));    // atof read 1000
  EXPECT_FALSE(util::parse_decimal("2.5"));    // atof truncated to 2
  EXPECT_FALSE(util::parse_decimal("12x"));    // strtoul read 12
  EXPECT_FALSE(util::parse_decimal(" 5"));     // no whitespace skipping
  EXPECT_FALSE(util::parse_decimal("5 "));
  EXPECT_FALSE(util::parse_decimal("0x10"));
}

TEST(ParseDecimalTest, RejectsOverflowInsteadOfWrapping) {
  EXPECT_FALSE(util::parse_decimal("18446744073709551616"));  // 2^64
  EXPECT_FALSE(util::parse_decimal("99999999999999999999999"));
  // Leading zeros are fine; they don't overflow the accumulator.
  EXPECT_EQ(util::parse_decimal("000000000000000000000042"), 42u);
}

// ------------------------------------------------------- BoundedQueue

TEST(BoundedQueueTest, FifoHandOff) {
  util::BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
}

TEST(BoundedQueueTest, CloseDrainsBacklogThenEnds) {
  util::BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));  // rejected after close
  EXPECT_EQ(queue.pop(), 1);    // backlog still drains
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueueTest, CloseUnblocksAProducerStuckOnAFullQueue) {
  // The run_study deadlock shape: producer blocked at the capacity cap,
  // consumer dies. close() must wake the producer with push == false.
  util::BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(0));  // now full

  std::atomic<bool> push_returned{false};
  bool push_result = true;
  std::thread producer([&] {
    push_result = queue.push(1);  // blocks until close()
    push_returned.store(true);
  });

  // Give the producer time to block, then poison the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result);
}

TEST(BoundedQueueTest, CloseUnblocksAConsumerStuckOnAnEmptyQueue) {
  util::BoundedQueue<int> queue(1);
  std::optional<int> popped = 99;
  std::thread consumer([&] { popped = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
  EXPECT_EQ(popped, std::nullopt);
}

// --------------------------------------------------------- ThreadPool

TEST(ThreadPoolErrorTest, WorkerExceptionPropagatesToTheCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_indexed(64,
                       [](std::size_t i) {
                         if (i == 13) {
                           throw std::runtime_error("shard task failed");
                         }
                       }),
      std::runtime_error);
}

TEST(ThreadPoolErrorTest, ExceptionMessageSurvivesTheChannel) {
  util::ThreadPool pool(3);
  try {
    pool.run_indexed(32, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("boom at 7");
    });
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 7");
  }
}

TEST(ThreadPoolErrorTest, PoolStaysUsableAfterAThrowingJob) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(
                   16, [](std::size_t) { throw std::runtime_error("dead"); }),
               std::runtime_error);

  // The next job must run every index exactly once.
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run_indexed(kCount, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolErrorTest, FailFastSkipsIndicesAfterAnError) {
  // With a failing first index and many slow followers, fail-fast must
  // leave some indices unvisited (at most one in-flight task per thread
  // finishes after the error is recorded).
  util::ThreadPool pool(2);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(pool.run_indexed(10000,
                                [&executed](std::size_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("poison");
                                  }
                                  executed.fetch_add(1);
                                }),
               std::runtime_error);
  EXPECT_LT(executed.load(), 10000u);
}

TEST(ThreadPoolErrorTest, SerialPoolPropagatesDirectly) {
  util::ThreadPool pool(1);
  EXPECT_THROW(pool.run_indexed(
                   4, [](std::size_t) { throw std::runtime_error("serial"); }),
               std::runtime_error);
}

// ------------------------------------------------- run_study consumer

core::StudyConfig tiny_study_config(unsigned threads) {
  auto config = core::StudyConfig::test_default();
  config.scenario.inventory_scale = 0.005;
  config.scenario.traffic_scale = 0.001;
  config.pipeline.threads = threads;
  return config;
}

TEST(StudyErrorPathTest, ConsumerThrowDoesNotDeadlockTheBoundedQueue) {
  // The PR-2 headline bug: the analysis consumer throwing used to leave
  // the synthesis producer blocked forever on the full hand-off queue.
  // A throwing DiscoverySink makes pipeline.observe() throw on the
  // consumer thread; run_study must unwind and rethrow, not hang.
  auto config = tiny_study_config(/*threads=*/2);
  config.discovery_sink = [](const core::Discovery&) {
    throw std::runtime_error("sink rejected the discovery");
  };
  try {
    core::run_study(config);
    FAIL() << "expected the consumer exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink rejected the discovery");
  }
}

TEST(StudyErrorPathTest, SequentialPathPropagatesTheSameError) {
  auto config = tiny_study_config(/*threads=*/1);
  config.discovery_sink = [](const core::Discovery&) {
    throw std::runtime_error("sink rejected the discovery");
  };
  EXPECT_THROW(core::run_study(config), std::runtime_error);
}

TEST(StudyErrorPathTest, LateConsumerThrowStillUnwinds) {
  // Throw only after the queue has had a chance to fill (producer ahead
  // of consumer), exercising the close-while-producer-blocked path.
  auto config = tiny_study_config(/*threads=*/2);
  auto count = std::make_shared<std::atomic<int>>(0);
  config.discovery_sink = [count](const core::Discovery&) {
    if (count->fetch_add(1) >= 50) {
      throw std::runtime_error("late failure");
    }
  };
  EXPECT_THROW(core::run_study(config), std::runtime_error);
}

TEST(StudyErrorPathTest, ConsumerDeathReleasesQueuedBatchBytes) {
  // When the analyst dies mid-run, hours already sitting in the hand-off
  // queue are destroyed without ever being observed. Their bytes were
  // added to pipeline.batch.mem_peak at enqueue time and used to leak —
  // the gauge stayed permanently high after the unwind. The join guard
  // must drain the backlog and give the bytes back.
  auto& gauge = obs::Registry::instance().gauge("pipeline.batch.mem_peak");
  const std::int64_t before = gauge.value();

  auto config = tiny_study_config(/*threads=*/2);
  auto count = std::make_shared<std::atomic<int>>(0);
  config.discovery_sink = [count](const core::Discovery&) {
    if (count->fetch_add(1) >= 50) {
      throw std::runtime_error("late failure");
    }
  };
  EXPECT_THROW(core::run_study(config), std::runtime_error);
  EXPECT_EQ(gauge.value(), before)
      << "queued-but-unobserved batches must decrement the mem gauge";
}

TEST(StudyErrorPathTest, CloseMidPushReleasesTheBlockedBatchBytes) {
  // The audited close-mid-push shape, pinned deterministically: the
  // producer accounted an hour's bytes into pipeline.batch.mem_peak and
  // then blocked inside push() on a full queue; the analyst died and
  // closed the queue underneath it. push() returns false and the
  // producer's `if (!queue.push(...)) mem_gauge.add(-bytes)` must give
  // exactly those bytes back — the batch was destroyed unobserved, so
  // nobody else ever will. (The run_study tests above cover this shape
  // probabilistically; this one forces the blocked-mid-push interleaving
  // every run.)
  auto& gauge = obs::Registry::instance().gauge("pipeline.batch.mem_peak");
  const std::int64_t before = gauge.value();

  util::BoundedQueue<net::FlowBatch> queue(1, "study.queue");
  net::FlowBatch filler;
  filler.reserve(8);
  const auto filler_bytes = static_cast<std::int64_t>(filler.resident_bytes());
  gauge.add(filler_bytes);
  ASSERT_TRUE(queue.push(std::move(filler)));  // queue now full

  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    net::FlowBatch blocked;
    blocked.reserve(64);
    const auto bytes = static_cast<std::int64_t>(blocked.resident_bytes());
    gauge.add(bytes);
    if (!queue.push(std::move(blocked))) gauge.add(-bytes);
    push_returned.store(true);
  });
  // Let the producer block at the capacity cap, then kill the queue the
  // way a dead analyst does.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  // Drain the backlog the way run_study's join guard does.
  while (auto batch = queue.pop()) {
    gauge.add(-static_cast<std::int64_t>(batch->resident_bytes()));
  }
  EXPECT_EQ(gauge.value(), before)
      << "a batch dropped by close-mid-push must release its gauge bytes";
}

TEST(StudyErrorPathTest, GraphSchedulerFailureRestoresTheMemGauge) {
  // Graph-mode run_study: hours are submitted as task subgraphs and the
  // mem gauge is released by the per-hour after-hook, which runs even
  // for hours aborted by fail-fast (the fan-in's finally executes on
  // skipped tasks). A discovery sink throwing mid-stream must surface
  // with its message intact and leave no gauge residual from the hours
  // that were in flight or submitted-but-never-run.
  auto& gauge = obs::Registry::instance().gauge("pipeline.batch.mem_peak");
  const std::int64_t before = gauge.value();

  auto config = tiny_study_config(/*threads=*/4);
  config.pipeline.scheduler = core::ShardScheduler::Graph;
  auto count = std::make_shared<std::atomic<int>>(0);
  config.discovery_sink = [count](const core::Discovery&) {
    if (count->fetch_add(1) >= 50) {
      throw std::runtime_error("sink rejected the discovery");
    }
  };
  try {
    core::run_study(config);
    FAIL() << "expected the fan-in exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink rejected the discovery");
  }
  EXPECT_EQ(gauge.value(), before)
      << "aborted in-flight hours must release their gauge bytes";
}

// -------------------------------------------- FlowTupleStore prefetch

net::HourlyFlows make_hour(int interval) {
  net::HourlyFlows flows;
  flows.interval = interval;
  flows.start_time = util::AnalysisWindow::interval_start(interval);
  net::FlowTuple t;
  t.src = net::Ipv4Address::from_octets(192, 0, 2, 1);
  t.dst = net::Ipv4Address::from_octets(10, 0, 0, 1);
  t.src_port = 1024;
  t.dst_port = 23;
  t.protocol = net::Protocol::Tcp;
  t.tcp_flags = net::kSyn;
  t.ttl = 64;
  t.ip_length = 44;
  t.packet_count = 3;
  flows.records.push_back(t);
  return flows;
}

TEST(StorePrefetchErrorTest, VisitorExceptionJoinsTheReaderAndRethrows) {
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  for (int h = 0; h < 12; ++h) store.put(make_hour(h));

  int visited = 0;
  EXPECT_THROW(store.for_each(
                   [&visited](const net::FlowBatch&) {
                     if (++visited == 3) {
                       throw std::runtime_error("visitor failed");
                     }
                   },
                   /*prefetch=*/2),
               std::runtime_error);
  EXPECT_EQ(visited, 3);
}

TEST(StorePrefetchErrorTest, ThrowingVisitorLeavesNoMemGaugeResidual) {
  // Regression for the documented pipeline.batch.mem_peak residual: the
  // in-flight batch's bytes (and any batches stranded in the prefetch
  // queue) were added at enqueue time but never released when the
  // visitor threw, permanently inflating the surfaced gauge value. The
  // RAII release guard plus the unwind-path drain must return the gauge
  // exactly to its pre-iteration value.
  auto& gauge = obs::Registry::instance().gauge("pipeline.batch.mem_peak");
  const std::int64_t before = gauge.value();

  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  for (int h = 0; h < 12; ++h) store.put(make_hour(h));
  int visited = 0;
  EXPECT_THROW(store.for_each(
                   [&visited](const net::FlowBatch&) {
                     if (++visited == 2) {
                       throw std::runtime_error("visitor failed");
                     }
                   },
                   /*prefetch=*/4),
               std::runtime_error);
  EXPECT_EQ(gauge.value(), before)
      << "an unwound for_each must release every accounted batch byte";
}

TEST(StorePrefetchErrorTest, DecodeErrorSurfacesOnTheCallingThread) {
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  for (int h = 0; h < 4; ++h) store.put(make_hour(h));
  // Corrupt hour 2 in place: bad magic/truncation must throw from the
  // background reader and be rethrown here after the join.
  util::write_file(dir.path() / "flowtuple-0002.ift", "not a flowtuple file");

  std::vector<int> seen;
  EXPECT_THROW(store.for_each(
                   [&seen](const net::FlowBatch& batch) {
                     seen.push_back(batch.interval);
                   },
                   /*prefetch=*/2),
               std::exception);
  // Hours before the corrupt one were still delivered in order.
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 1);
}

// ------------------------------------------ stream corrupt-hour quarantine

// A corrupt published hour used to propagate its util::IoError out of
// poll_once and kill the follow daemon. It must instead be quarantined:
// counted, skipped, and stepped over by the watermark, with the final
// report equal to a run over the surviving hours only.

TEST(StreamQuarantineTest, CorruptHourIsSkippedAndCounted) {
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  for (int h = 0; h < 6; ++h) store.put(make_hour(h));
  util::write_file(dir.path() / net::FlowTupleCodec::file_name(2),
                   "not a flowtuple file");

  inventory::IoTDeviceDatabase db;
  core::PipelineOptions popts;
  popts.threads = 1;
  popts.unknown_profile_hourly_floor = 1;
  core::StreamingStudy study(db, store, popts);
  study.follow([] { return true; });

  EXPECT_EQ(study.stats().hours_admitted, 6u)
      << "the quarantined hour still counts into the admission cadence";
  EXPECT_EQ(study.stats().hours_corrupt, 1u);
  EXPECT_EQ(study.watermark(), 6) << "the watermark must step past the hour";
  const core::Report report = study.finalize();
  // make_hour carries 3 packets; the corrupt hour contributes nothing.
  EXPECT_EQ(report.total_packets + report.unattributed_packets, 5u * 3u);
}

TEST(StreamQuarantineTest, GraphSchedulerQuarantinesOnItsLanes) {
  // Under the Graph scheduler the decode runs as a scheduler task; a
  // throwing task would fail the whole graph at the next drain. The
  // guarded loader must flag the hour instead and fold it empty.
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  for (int h = 0; h < 6; ++h) store.put(make_hour(h));
  util::write_file(dir.path() / net::FlowTupleCodec::file_name(3),
                   "still not a flowtuple file");

  inventory::IoTDeviceDatabase db;
  core::PipelineOptions popts;
  popts.scheduler = core::ShardScheduler::Graph;
  popts.threads = 2;
  popts.unknown_profile_hourly_floor = 1;
  core::StreamingStudy study(db, store, popts);
  study.follow([] { return true; });

  EXPECT_EQ(study.stats().hours_admitted, 6u);
  EXPECT_EQ(study.stats().hours_corrupt, 1u);
  EXPECT_EQ(study.watermark(), 6);
  const core::Report report = study.finalize();
  EXPECT_EQ(report.total_packets + report.unattributed_packets, 5u * 3u);
}

TEST(StreamQuarantineTest, TornCompressedHourQuarantines) {
  // Same discipline for the compressed format: a block torn mid-payload
  // (CRC/short-read territory) must quarantine, not kill the daemon.
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  store.set_write_format(telescope::StoreFormat::Compressed);
  for (int h = 0; h < 4; ++h) store.put(make_hour(h));
  const auto torn_path = dir.path() / net::CompressedFlowCodec::file_name(1);
  const std::string intact = util::read_file(torn_path);
  util::write_file(torn_path, intact.substr(0, intact.size() * 2 / 3));

  inventory::IoTDeviceDatabase db;
  core::PipelineOptions popts;
  popts.threads = 1;
  popts.unknown_profile_hourly_floor = 1;
  core::StreamingStudy study(db, store, popts);
  study.follow([] { return true; });

  EXPECT_EQ(study.stats().hours_corrupt, 1u);
  EXPECT_EQ(study.watermark(), 4);
  const core::Report report = study.finalize();
  EXPECT_EQ(report.total_packets + report.unattributed_packets, 3u * 3u);
}

// ------------------------------------- hostile raw hours through the store

// The codec's own tests feed hostile bytes from memory; these publish
// them as a store's ".ift" hour, so the file read path (down to a
// zero-byte file) is what rejects them. Every
// raw consumer must surface the codec's util::IoError unchanged, and the
// streaming study must quarantine the hour and keep ingesting.

struct HostileRawHour {
  std::string name;
  std::string bytes;
  std::string message;
};

/// Hour 1 of the hostile-hour stores: three records, so that its last
/// record starts past the header and a count can overstate the file.
std::string intact_raw_hour() {
  net::HourlyFlows flows = make_hour(1);
  flows.records.push_back(flows.records.back());
  flows.records.back().protocol = net::Protocol::Udp;
  flows.records.push_back(flows.records.back());
  flows.records.back().protocol = net::Protocol::Icmp;
  std::string blob;
  net::FlowTupleCodec::encode(blob, flows);
  return blob;
}

std::vector<HostileRawHour> hostile_raw_hours() {
  constexpr std::size_t kCountOffset = 18;
  constexpr std::size_t kHeaderBytes = 26;
  const std::string intact = intact_raw_hour();
  std::vector<HostileRawHour> out;
  for (std::size_t len = 0; len < intact.size(); ++len) {
    out.push_back({"prefix of " + std::to_string(len) + " bytes",
                   intact.substr(0, len), "unexpected end of stream"});
  }
  const auto with_count = [&](std::uint64_t count) {
    std::string bytes = intact;
    util::store_le64(reinterpret_cast<unsigned char*>(&bytes[kCountOffset]),
                     count);
    return bytes;
  };
  out.push_back({"count one past the records", with_count(4),
                 "unexpected end of stream"});
  out.push_back({"count at the 2^30 cap", with_count(1ULL << 30),
                 "unexpected end of stream"});
  out.push_back({"count past the 2^30 cap", with_count((1ULL << 30) + 1),
                 "flowtuple file: implausible record count"});
  std::string bad_proto = intact;
  bad_proto[kHeaderBytes + 2 * net::FlowTupleCodec::kRecordBytes + 12] = 2;
  out.push_back({"unknown protocol in the last record", bad_proto,
                 "flowtuple file: unknown protocol value"});
  return out;
}

template <typename Read>
void expect_io_error(const Read& read, const HostileRawHour& hour,
                     const char* path) {
  try {
    read();
    ADD_FAILURE() << path << " accepted the " << hour.name;
  } catch (const util::IoError& error) {
    EXPECT_EQ(std::string(error.what()), hour.message)
        << path << ", " << hour.name;
  }
}

TEST(HostileRawHourTest, IntactHourDecodesUntagged) {
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  store.put_hostile(1, intact_raw_hour(), telescope::StoreFormat::Raw);
  const auto batch = store.get_batch(1);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 3u);
  EXPECT_TRUE(batch->class_tag.empty());
  EXPECT_EQ(batch->tag_recipe, 0u);
  const auto loaders = store.hour_loaders(1, 4);
  ASSERT_EQ(loaders.size(), 1u);
  const net::FlowBatch part = loaders[0]();
  EXPECT_TRUE(part.same_records(*batch));
  EXPECT_TRUE(part.class_tag.empty());
  EXPECT_EQ(part.tag_recipe, 0u);
}

TEST(HostileRawHourTest, EveryRawReadPathRejectsTheHour) {
  for (const HostileRawHour& hour : hostile_raw_hours()) {
    util::TempDir dir;
    telescope::FlowTupleStore store(dir.path());
    store.put_hostile(1, hour.bytes, telescope::StoreFormat::Raw);
    expect_io_error([&] { store.get_batch(1); }, hour, "get_batch");
    expect_io_error([&] { store.get(1); }, hour, "get");
    const auto loaders = store.hour_loaders(1, 4);
    ASSERT_EQ(loaders.size(), 1u) << hour.name;
    expect_io_error(loaders[0], hour, "hour_loaders");
    expect_io_error([&] { store.compact(); }, hour, "compact");
    EXPECT_TRUE(std::filesystem::exists(
        dir.path() / net::FlowTupleCodec::file_name(1)))
        << "compact must leave a rejected original in place, " << hour.name;
  }
}

TEST(HostileRawHourTest, StreamingStudyQuarantinesTheHour) {
  auto& corrupt = obs::Registry::instance().counter("stream.corrupt_hours");
  for (const HostileRawHour& hour : hostile_raw_hours()) {
    util::TempDir dir;
    telescope::FlowTupleStore store(dir.path());
    for (const int h : {0, 2, 3}) store.put(make_hour(h));
    store.put_hostile(1, hour.bytes, telescope::StoreFormat::Raw);

    inventory::IoTDeviceDatabase db;
    core::PipelineOptions popts;
    popts.threads = 1;
    popts.unknown_profile_hourly_floor = 1;
    core::StreamingStudy study(db, store, popts);
    const std::uint64_t corrupt_before = corrupt.value();
    study.follow([] { return true; });

    EXPECT_EQ(corrupt.value() - corrupt_before, 1u) << hour.name;
    EXPECT_EQ(study.stats().hours_corrupt, 1u) << hour.name;
    EXPECT_EQ(study.watermark(), 4) << hour.name;
    const core::Report report = study.finalize();
    EXPECT_EQ(report.total_packets + report.unattributed_packets, 3u * 3u)
        << hour.name;
  }
}

}  // namespace
}  // namespace iotscope
