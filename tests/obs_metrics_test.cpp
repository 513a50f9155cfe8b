// Unit and concurrency coverage for the obs metrics registry, plus the
// end-to-end observability guarantees: the metrics JSON parses and
// covers every pipeline stage, stage times reconcile with wall time,
// and enabling metrics never changes a pipeline report.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "core/iotscope.hpp"
#include "core/report_text.hpp"
#include "obs/metrics.hpp"
#include "telescope/store.hpp"
#include "util/io.hpp"
#include "workload/synth.hpp"

namespace iotscope::obs {
namespace {

// ------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker: enough to assert the
// --metrics-out document is well-formed without an external dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_lit();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------- basics

TEST(ObsMetricsTest, CounterAggregatesStripesAtReadTime) {
  auto& counter = Registry::instance().counter("test.counter.basic");
  const auto before = counter.value();
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), before + 42);
}

TEST(ObsMetricsTest, GaugeTracksValueAndHighWaterMark) {
  auto& gauge = Registry::instance().gauge("test.gauge.basic");
  gauge.reset();
  gauge.set(3);
  gauge.set(7);
  gauge.set(2);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.max(), 7);
}

TEST(ObsMetricsTest, StageRecordsCallsTotalsAndHistogram) {
  auto& stage = Registry::instance().stage("test.stage.basic");
  stage.reset();
  stage.record_ns(100);
  stage.record_ns(1000);
  stage.record_ns(1000000);
  EXPECT_EQ(stage.calls(), 3u);
  EXPECT_EQ(stage.total_ns(), 1001100u);
  EXPECT_EQ(stage.max_ns(), 1000000u);
  // p50 bucket upper bound must cover the median sample (1000ns) without
  // reaching the max sample.
  EXPECT_GE(stage.percentile_ns(0.50), 1000u);
  EXPECT_LT(stage.percentile_ns(0.50), 1000000u);
  EXPECT_GE(stage.percentile_ns(0.99), 1000000u);
}

TEST(ObsMetricsTest, ScopedTimerRecordsElapsedTime) {
  auto& stage = Registry::instance().stage("test.stage.timer");
  stage.reset();
  {
    ScopedTimer timer(stage);
  }
  EXPECT_EQ(stage.calls(), 1u);
}

TEST(ObsMetricsTest, DisabledCollectionDropsWritesAndReenables) {
  auto& counter = Registry::instance().counter("test.counter.disabled");
  auto& stage = Registry::instance().stage("test.stage.disabled");
  counter.reset();
  stage.reset();
  set_enabled(false);
  counter.add(100);
  stage.record_ns(5);
  {
    ScopedTimer timer(stage);
  }
  set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(stage.calls(), 0u);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST(ObsMetricsTest, RegistryReturnsStableHandles) {
  auto& a = Registry::instance().counter("test.counter.stable");
  auto& b = Registry::instance().counter("test.counter.stable");
  EXPECT_EQ(&a, &b);
}

// -------------------------------------------------------- concurrency

TEST(ObsMetricsTest, ConcurrentWritersWithSnapshotsStayExact) {
  // N writer threads hammer a shared counter, gauge, and stage while a
  // reader snapshots in a loop — the TSan target for the registry. The
  // final aggregate must be exact.
  auto& counter = Registry::instance().counter("test.counter.concurrent");
  auto& gauge = Registry::instance().gauge("test.gauge.concurrent");
  auto& stage = Registry::instance().stage("test.stage.concurrent");
  counter.reset();
  gauge.reset();
  stage.reset();

  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 50000;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const auto snap = Registry::instance().snapshot();
      const auto* sample = snap.counter("test.counter.concurrent");
      ASSERT_NE(sample, nullptr);
      // Monotone non-decreasing while writers only add.
      EXPECT_GE(sample->value, last);
      last = sample->value;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        counter.add(1);
        if (i % 1024 == 0) {
          gauge.set(static_cast<std::int64_t>(i));
          stage.record_ns(i + static_cast<std::uint64_t>(w));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(counter.value(), kWriters * kPerWriter);
  // Each writer records on i % 1024 == 0, i.e. ceil(kPerWriter/1024) times.
  EXPECT_EQ(stage.calls(), kWriters * ((kPerWriter + 1023) / 1024));
}

// ------------------------------------------------- end-to-end pipeline

workload::ScenarioConfig tiny_config() {
  workload::ScenarioConfig config;
  config.inventory_scale = 0.004;
  config.traffic_scale = 0.0008;
  config.noise_ratio = 0.05;
  return config;
}

const workload::Scenario& tiny_scenario() {
  static const workload::Scenario instance =
      workload::build_scenario(tiny_config());
  return instance;
}

const std::vector<net::FlowBatch>& tiny_hours() {
  static const std::vector<net::FlowBatch> instance = [] {
    std::vector<net::FlowBatch> out;
    telescope::TelescopeCapture capture(
        telescope::DarknetSpace(tiny_config().darknet),
        [&out](net::FlowBatch&& batch) { out.push_back(std::move(batch)); });
    workload::synthesize_into(tiny_scenario(), tiny_config(), capture);
    return out;
  }();
  return instance;
}

std::string run_and_render(unsigned threads) {
  core::PipelineOptions options;
  options.threads = threads;
  core::AnalysisPipeline pipeline(tiny_scenario().inventory, options);
  for (const auto& h : tiny_hours()) pipeline.observe(h);
  const auto report = pipeline.finalize();
  const auto character = core::characterize(report, tiny_scenario().inventory);
  return core::render_inference_report(report, character,
                                       tiny_scenario().inventory) +
         core::render_traffic_report(report, tiny_scenario().inventory);
}

TEST(ObsMetricsTest, MetricsCollectionNeverChangesTheReport) {
  // The acceptance bar: reports are byte-identical with metrics enabled
  // vs disabled, at several thread counts.
  set_enabled(false);
  const std::string off_1 = run_and_render(1);
  const std::string off_4 = run_and_render(4);
  set_enabled(true);
  const std::string on_1 = run_and_render(1);
  const std::string on_4 = run_and_render(4);
  EXPECT_EQ(on_1, off_1);
  EXPECT_EQ(on_4, off_4);
  EXPECT_EQ(on_1, on_4);
}

TEST(ObsMetricsTest, PipelineRunCoversAllStagesAndReconcilesWallTime) {
  Registry::instance().reset();

  // Disk round-trip through the prefetching store so decode, observe,
  // fan-in, and finalize all run.
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  for (const auto& h : tiny_hours()) store.put(h);

  core::PipelineOptions options;
  options.threads = 2;
  core::AnalysisPipeline pipeline(tiny_scenario().inventory, options);
  const auto wall_start = now_ns();
  store.for_each(
      [&pipeline](const net::FlowBatch& batch) { pipeline.observe(batch); },
      /*prefetch=*/2);
  pipeline.finalize();
  const auto wall_ns = now_ns() - wall_start;

  const auto snap = Registry::instance().snapshot();
  const std::size_t hour_count = tiny_hours().size();
  for (const char* name :
       {"store.decode", "pipeline.observe", "pipeline.classify",
        "pipeline.observe.shard", "pipeline.partition", "pipeline.fanin",
        "pipeline.finalize", "pipeline.merge", "threadpool.run_morsels"}) {
    SCOPED_TRACE(name);
    const auto* stage = snap.stage(name);
    ASSERT_NE(stage, nullptr);
    EXPECT_GT(stage->calls, 0u);
    EXPECT_GT(stage->total_ns, 0u);
  }
  EXPECT_EQ(snap.stage("pipeline.observe")->calls, hour_count);
  EXPECT_EQ(snap.stage("pipeline.finalize")->calls, 1u);
  EXPECT_EQ(snap.stage("store.decode")->calls, hour_count);

  // Stage times must reconcile with wall time: every coordinator-side
  // stage fits inside the wall clock, and the phases nested inside
  // observe() cannot exceed it.
  const auto total = [&](const char* name) {
    return snap.stage(name)->total_ns;
  };
  EXPECT_LE(total("pipeline.observe"), wall_ns);
  EXPECT_LE(total("pipeline.finalize"), wall_ns);
  EXPECT_LE(total("pipeline.partition") + total("pipeline.fanin"),
            total("pipeline.observe"));
  // The decode thread overlaps analysis but is itself bounded by wall.
  EXPECT_LE(total("store.decode"), wall_ns);
  // Shard tasks run on `threads` lanes at most.
  EXPECT_LE(total("pipeline.observe.shard"),
            wall_ns * static_cast<std::uint64_t>(options.threads));

  // Counters carried the volume. Every record arrived through the
  // columnar path, so the batch counters match the record counters and
  // the byte counter is exactly records x on-disk record size.
  EXPECT_EQ(snap.counter("pipeline.hours")->value, hour_count);
  EXPECT_GT(snap.counter("pipeline.records")->value, 0u);
  EXPECT_EQ(snap.counter("pipeline.batch.records")->value,
            snap.counter("pipeline.records")->value);
  EXPECT_EQ(snap.counter("pipeline.batch.bytes")->value,
            snap.counter("pipeline.records")->value *
                net::FlowTupleCodec::kRecordBytes);
  // Prefetch was on, so the resident-batch gauge saw a high-water mark.
  const auto* mem = snap.gauge("pipeline.batch.mem_peak");
  ASSERT_NE(mem, nullptr);
  EXPECT_GT(mem->max, 0);

  // The stealing scheduler (the default) accounted for every morsel it
  // dispatched, and the partition pass published a skew gauge: max/mean
  // bucket records x 100 is at least 100 (an even split) and at most
  // threads x 100 (everything in one bucket).
  const auto* claimed = snap.counter("pipeline.morsel.claimed");
  const auto* stolen = snap.counter("pipeline.morsel.stolen");
  ASSERT_NE(claimed, nullptr);
  ASSERT_NE(stolen, nullptr);
  EXPECT_GT(claimed->value + stolen->value, 0u);
  const auto* skew = snap.gauge("pipeline.shard.skew");
  ASSERT_NE(skew, nullptr);
  EXPECT_GE(skew->max, 100);
  EXPECT_LE(skew->max, static_cast<std::int64_t>(options.threads) * 100);
  EXPECT_EQ(snap.stage("pipeline.merge")->calls, 1u);
}

TEST(ObsMetricsTest, SnapshotsAreTimedApartFromFinalize) {
  // A daemon that publishes every few hours must not look, on /metrics,
  // like one that finalized that many times: snapshots get their own
  // stage, finalize() counts once, and every one of them consolidates.
  Registry::instance().reset();
  core::PipelineOptions options;
  options.threads = 2;
  core::AnalysisPipeline pipeline(tiny_scenario().inventory, options);
  std::uint64_t snapshots = 0;
  for (const auto& h : tiny_hours()) {
    pipeline.observe(h);
    if (h.interval % 3 == 0) {
      pipeline.snapshot();
      ++snapshots;
    }
  }
  pipeline.finalize();
  ASSERT_GT(snapshots, 1u);

  const auto snap = Registry::instance().snapshot();
  ASSERT_NE(snap.stage("pipeline.snapshot"), nullptr);
  EXPECT_EQ(snap.stage("pipeline.snapshot")->calls, snapshots);
  EXPECT_EQ(snap.stage("pipeline.finalize")->calls, 1u);
  EXPECT_EQ(snap.stage("pipeline.merge")->calls, snapshots + 1);
}

TEST(ObsMetricsTest, JsonSnapshotIsWellFormedAndCoversTheStages) {
  // Each gtest case may run in its own process (ctest discovery), so
  // produce the full stage set here: disk store -> pipeline -> finalize.
  util::TempDir dir;
  telescope::FlowTupleStore store(dir.path());
  for (const auto& h : tiny_hours()) store.put(h);
  core::AnalysisPipeline pipeline(tiny_scenario().inventory);
  store.for_each(
      [&pipeline](const net::FlowBatch& batch) { pipeline.observe(batch); });
  pipeline.finalize();

  const auto snap = Registry::instance().snapshot();
  const std::string json = render_json(snap);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  for (const char* key :
       {"\"counters\"", "\"gauges\"", "\"stages\"", "\"pipeline.observe\"",
        "\"pipeline.fanin\"", "\"pipeline.finalize\"", "\"store.decode\"",
        "\"calls\"", "\"total_ns\"", "\"p99_ns\"", "\"buckets\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  // The human rendering exists and mentions the stages too.
  const std::string text = render_text(snap);
  EXPECT_NE(text.find("pipeline.observe"), std::string::npos);
  EXPECT_NE(text.find("stages:"), std::string::npos);
}

TEST(ObsMetricsTest, RenderedJsonEscapesStrings) {
  Snapshot snap;
  snap.counters.push_back({"weird\"name\\with\nescapes", 1});
  const std::string json = render_json(snap);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\\\"name\\\\"), std::string::npos);
}

}  // namespace
}  // namespace iotscope::obs
