// The measured (untraced) run, the traced run and the peak-RSS child.
#include "measure.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <thread>

#include "core/characterize.hpp"
#include "core/malicious.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "obs/metrics.hpp"
#include "phases.hpp"
#include "serve/server.hpp"

extern char** environ;

namespace perfbench {

namespace core = iotscope::core;

namespace {


struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Output {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void attempt(std::uint64_t n, std::uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }

  /// Metric table, then the JSON result as the last line. A failed run
  /// reports no metrics.
  void print(bool correct) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_) +
            ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; correct && i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Prints the failure, then correct=false; returns the exit code.
int fail(const Output& out, const std::exception& e) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.what());
  out.print(false);
  return 1;
}

unsigned client_threads(unsigned nproc) { return std::min(2u, nproc); }

/// Spans that only group others (the root and one per phase). Every other
/// span is a layer's public call or, named bench.*, the benchmark's own
/// work (tallies, checks, query planning, placing input files).
const std::set<std::string> kGroupSpans{"trace", "setup", "batch",
                                        "follow", "serve", "compact"};

/// Share of the traced total the group spans' self time may reach.
constexpr double kUncoveredTolerance = 0.01;

/// The self-test's deliberate corruption: one packet added, one device
/// dropped.
Report perturbed(const Report& report) {
  Report copy = report;
  copy.total_packets += 1;
  if (!copy.devices.empty()) {
    const auto device = copy.devices.back().device;
    copy.devices.pop_back();
    copy.device_index.erase(device);
    if (copy.discovered_consumer > 0) {
      --copy.discovered_consumer;
    } else if (copy.discovered_cps > 0) {
      --copy.discovered_cps;
    }
  }
  return copy;
}

double records_per_s(std::uint64_t records, double seconds) {
  return seconds > 0 ? static_cast<double>(records) / seconds : 0.0;
}

/// Set-up children of a measured run before its warm-up; each measured
/// round adds two more, one after its batch passes and one after its
/// second serve round.
constexpr std::size_t kSetupWarmupChildren = 3;

/// Runs `exe setup --data DIR` (measure_setup) and returns the set-up time
/// it prints.
double setup_child(const std::string& exe, const fs::path& data) {
  int out[2];
  check(::pipe2(out, O_CLOEXEC) == 0, "setup: pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  const std::string data_arg = data.string();
  std::vector<char*> argv{const_cast<char*>(exe.c_str()),
                          const_cast<char*>("setup"),
                          const_cast<char*>("--data"),
                          const_cast<char*>(data_arg.c_str()), nullptr};
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  char chunk[256];
  for (ssize_t n; spawned == 0 && (n = ::read(out[0], chunk, sizeof chunk)) > 0;) {
    text.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  const bool ok = spawned == 0 && ::waitpid(pid, &status, 0) == pid &&
                  WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                  text.rfind("setup_s ", 0) == 0;
  check(ok, "setup: child process failed: " + text);
  return std::stod(text.substr(8));
}

}  // namespace

// ------------------------------------------------------------- measured

int run_measured(const RunConfig& config) {
  Output out;
  try {
    // Set-up is timed in fresh processes (measure_setup), spread over the
    // run between its phases; load once here, untimed.
    std::vector<double> setup_s;
    auto sample_setup = [&](std::size_t children) {
      for (std::size_t i = 0; i < children; ++i) {
        setup_s.push_back(setup_child(config.self_exe, config.data));
        out.attempt(1);
      }
    };
    const Dataset data = load_dataset(config.data);
    out.attempt(1);
    const SynthFacts facts = read_synth_facts(config.data);
    sample_setup(kSetupWarmupChildren);

    // Warm-up pass (discarded): also feeds the reference tallies.
    ReferenceTally ref(data.inventory);
    const BatchResult warm = run_batch(data, config.threads, &ref);
    out.attempt(1);
    ref.check_report(config.perturb ? perturbed(*warm.report) : *warm.report,
                     facts, "batch report");
    const std::string& expected = warm.text;
    const auto plan = plan_queries(config.spec, *warm.report, data, &ref,
                                   client_threads(config.threads));

    auto run_follow_checked = [&] {
      FollowResult follow = run_follow(data, config.threads, config.work, &ref);
      check(follow.text == expected,
            "follow: final report does not render byte-identical to batch");
      out.attempt(1);
      return follow;
    };
    auto run_serve = [&] {
      ServeResult serve = run_serve_round(data, warm.report, plan);
      out.attempt(serve.operations, serve.probes_failed);
      return serve;
    };
    auto run_compact_pass = [&] {
      CompactResult compact = run_compact(config.data, config.work);
      out.attempt(1);
      return compact;
    };
    // Warm-up of the other phases (discarded).
    run_follow_checked();
    run_serve();
    run_compact_pass();

    const auto rounds = static_cast<std::size_t>(
        std::max(3.0, std::round(config.seconds / config.spec.round_seconds)));
    std::vector<double> batch_rate, batch_1t_rate, follow_rate, publish_ms,
        serve_rate, query_p50, compact_rate;
    // Two serve rounds per round, before and after the replay: loopback
    // round trips follow the host's wake-up latency, which swings within
    // seconds, so samples spread over the round steady the median.
    auto sample_serve = [&] {
      const ServeResult serve = run_serve();
      serve_rate.push_back(serve.queries_per_s);
      query_p50.push_back(median(serve.query_us));
    };
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t p = 0; p < config.spec.batch_passes; ++p) {
        for (const unsigned threads : {config.threads, 1u}) {
          const BatchResult pass = run_batch(data, threads);
          out.attempt(1);
          check(pass.text == expected,
                "batch: " + std::to_string(threads) +
                    "-thread report does not render byte-identical to the " +
                    std::to_string(config.threads) + "-thread warm-up");
          (threads == 1 ? batch_1t_rate : batch_rate)
              .push_back(records_per_s(pass.records, pass.seconds));
        }
      }
      sample_setup(1);
      sample_serve();
      const FollowResult follow = run_follow_checked();
      follow_rate.push_back(records_per_s(follow.records, follow.admit_s));
      publish_ms.insert(publish_ms.end(), follow.publish_ms.begin(),
                        follow.publish_ms.end());
      sample_serve();
      sample_setup(1);
      const CompactResult compact = run_compact_pass();
      compact_rate.push_back(records_per_s(compact.records, compact.seconds));
    }

    out.add("setup_s", median(setup_s), "s");
    out.add("batch_records_per_s", median(batch_rate), "1/s");
    out.add("batch_1t_records_per_s", median(batch_1t_rate), "1/s");
    out.add("follow_records_per_s", median(follow_rate), "1/s");
    out.add("publish_ms_p50", median(publish_ms), "ms");
    out.add("serve_queries_per_s", median(serve_rate), "1/s");
    out.add("query_us_p50", median(query_p50), "us");
    out.add("compact_records_per_s", median(compact_rate), "1/s");
  } catch (const CheckFailed& e) {
    return fail(out, e);
  }
  out.print(true);
  return 0;
}

// ------------------------------------------------------------- traced

int run_traced(const RunConfig& config) {
  Output out;
  Tracer tracer;
  try {
    const double span_cost_ns = Tracer::span_cost_ns();
    std::optional<SpanScope> root;
    root.emplace(&tracer, "trace");

    // Set-up, layer by layer.
    std::optional<Dataset> data;
    for (std::size_t i = 0; i < 3; ++i) {
      {
        SpanScope span(&tracer, "bench.release");  // the previous load
        data.reset();
      }
      SpanScope setup(&tracer, "setup");
      std::optional<iotscope::inventory::IoTDeviceDatabase> inventory;
      {
        SpanScope span(&tracer, "inventory.load");
        inventory.emplace(iotscope::inventory::IoTDeviceDatabase::load_csv(
            config.data / "inventory.csv"));
      }
      std::optional<iotscope::telescope::FlowTupleStore> store;
      {
        SpanScope span(&tracer, "store.open");
        store.emplace(config.data / "flowtuples");
      }
      SpanScope span(&tracer, "intel.load");
      data.emplace(Dataset{
          std::move(*inventory), std::move(*store),
          iotscope::intel::ThreatRepository::load_csv(config.data / "threats.csv"),
          iotscope::intel::MalwareDatabase::import_xml(config.data / "malware"),
          iotscope::intel::FamilyResolver::load_csv(config.data / "verdicts.csv")});
    }
    out.attempt(3);
    SynthFacts facts;
    {
      SpanScope span(&tracer, "bench.check");  // the generator's counters
      facts = read_synth_facts(config.data);
    }
    const auto& db = data->inventory;

    // Batch path, one layer call at a time, at 1 and nproc threads.
    std::optional<ReferenceTally> tally;
    {
      SpanScope span(&tracer, "bench.tally");
      tally.emplace(db);
    }
    ReferenceTally& ref = *tally;
    core::PipelineOptions one;
    one.threads = 1;
    core::PipelineOptions many;
    many.threads = config.threads;
    std::optional<core::AnalysisPipeline> pipe_1t;
    std::optional<core::AnalysisPipeline> pipe;
    {
      SpanScope span(&tracer, "pipeline.create");
      pipe_1t.emplace(db, one);
      pipe.emplace(db, many);
    }
    auto& stolen = iotscope::obs::Registry::instance().counter("pipeline.morsel.stolen");
    const std::uint64_t stolen_before = stolen.value();
    std::uint64_t read_bytes = 0;
    std::uint64_t found = 0;
    std::size_t hours = 0;
    {
      SpanScope batch_phase(&tracer, "batch");
      for (const int interval : data->store.intervals()) {
        std::optional<iotscope::net::FlowBatch> batch;
        {
          SpanScope span(&tracer, "store.decode");
          batch = data->store.get_batch(interval);
        }
        {
          SpanScope span(&tracer, "bench.tally");
          check(batch.has_value(), "trace: hour vanished");
          read_bytes += fs::file_size(hour_file(data->store.directory(), interval));
          ref.add(*batch);
        }
        {
          SpanScope span(&tracer, "classify");
          core::classify_batch(*batch, one.taxonomy);
        }
        {
          SpanScope span(&tracer, "inventory.find");
          for (const auto src : batch->src) found += db.find(src) != nullptr;
        }
        {
          SpanScope span(&tracer, "pipeline.observe_1t");
          pipe_1t->observe(*batch);
        }
        {
          SpanScope span(&tracer, "pipeline.observe");
          pipe->observe(*batch);
        }
        if (++hours % kSnapshotEvery == 0) {
          SpanScope span(&tracer, "pipeline.snapshot");
          const Report snapshot = pipe->snapshot();
          check(snapshot.total_packets <= ref.attributed(),
                "trace: snapshot ahead of the hours observed");
        }
      }
    }
    const std::uint64_t morsels_stolen = stolen.value() - stolen_before;
    std::optional<Report> report_1t;
    std::optional<Report> report;
    {
      SpanScope span(&tracer, "pipeline.finalize_1t");
      report_1t.emplace(pipe_1t->finalize());
    }
    {
      SpanScope span(&tracer, "pipeline.finalize");
      report.emplace(pipe->finalize());
    }
    std::optional<core::CharacterizationReport> character;
    {
      SpanScope span(&tracer, "report.characterize");
      character.emplace(core::characterize(*report, db));
    }
    std::optional<core::MaliciousnessReport> malicious;
    {
      SpanScope span(&tracer, "report.malicious");
      core::MaliciousnessOptions options;
      options.top_per_realm = static_cast<std::size_t>(
          static_cast<double>(report->discovered_total()) * 0.15);
      malicious.emplace(core::analyze_maliciousness(
          *report, db, data->threats, data->malware, data->resolver, options));
    }
    std::string text;
    {
      SpanScope span(&tracer, "report.render");
      text = core::render_inference_report(*report, *character, db) +
             core::render_traffic_report(*report, db) +
             core::render_maliciousness_report(*malicious);
    }
    {
      SpanScope span(&tracer, "bench.check");
      check(found == ref.attributed_records(),
            "trace: find() hit " + std::to_string(found) +
                " record sources, the reference tally attributes " +
                std::to_string(ref.attributed_records()));
      ref.check_report(config.perturb ? perturbed(*report) : *report, facts,
                       "traced batch report");
      check(render_all(*report_1t, *data) == text,
            "trace: 1-thread and multi-thread reports render differently");
    }
    out.attempt(1);

    // Streaming replay.
    FollowResult follow;
    {
      SpanScope phase(&tracer, "follow");
      follow = run_follow(*data, config.threads, config.work, &ref, &tracer);
      SpanScope span(&tracer, "bench.check");
      check(follow.text == text, "trace: replay renders differently from batch");
    }
    out.attempt(1);

    // Serve: socket-free handle() on misses then hits, then one socket round.
    std::optional<SpanScope> plan_span;
    plan_span.emplace(&tracer, "bench.plan");
    auto shared = std::make_shared<const Report>(*report);
    const auto plan = plan_queries(config.spec, *report, *data, &ref,
                                   client_threads(config.threads));
    std::vector<std::string> keys;
    for (const auto& query : plan.per_client.front()) {
      if (keys.size() == 200) break;
      if (std::find(keys.begin(), keys.end(), query.target) == keys.end()) {
        keys.push_back(query.target);
      }
    }
    plan_span.reset();
    ServeResult serve;
    {
      SpanScope phase(&tracer, "serve");
      iotscope::serve::ReportServer handler(
          db, [shared] { return iotscope::serve::Snapshot{1, shared}; });
      for (const char* kind : {"serve.handle_miss", "serve.handle_hit"}) {
        for (const auto& key : keys) {
          SpanScope span(&tracer, kind);
          const auto response = handler.handle("GET", key);
          check(response.status == 200, std::string("trace: ") + kind + " " + key);
        }
      }
      out.attempt(2 * keys.size());
      serve = run_serve_round(*data, shared, plan, &tracer);
      out.attempt(serve.operations, serve.probes_failed);
    }

    CompactResult compact;
    {
      SpanScope phase(&tracer, "compact");
      compact = run_compact(config.data, config.work, &tracer);
    }
    out.attempt(1);
    root.reset();

    const auto layers = tracer.layers();
    auto total = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.total_s;
    };
    auto p50 = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : median(it->second.durations_s);
    };
    const double trace_total = total("trace");
    // Coverage: the root and the phase spans only group others, so their
    // self time is time no layer or glue span accounts for.
    double uncovered = 0;
    double glue = 0;
    std::printf("  %-24s %8s %12s %12s\n", "span", "calls", "total_s", "self_s");
    for (const auto& [name, layer] : layers) {
      if (kGroupSpans.count(name)) uncovered += layer.self_s;
      if (name.rfind("bench.", 0) == 0) glue += layer.self_s;
      std::printf("  %-24s %8llu %12.6f %12.6f\n", name.c_str(),
                  static_cast<unsigned long long>(layer.calls), layer.total_s,
                  layer.self_s);
    }
    std::printf("  uncovered %.6f s of %.6f s (%.3f %%)\n", uncovered,
                trace_total, 100 * uncovered / trace_total);
    check(uncovered <= kUncoveredTolerance * trace_total,
          "trace: layer and glue spans leave " + std::to_string(uncovered) +
              " s of the traced " + std::to_string(trace_total) +
              " s uncovered");

    out.add("inventory.load_s", median(layers.at("inventory.load").durations_s), "s");
    out.add("inventory.find_ns",
            total("inventory.find") * 1e9 / static_cast<double>(ref.records()), "ns");
    out.add("intel.load_s", median(layers.at("intel.load").durations_s), "s");
    out.add("store.decode_s", total("store.decode"), "s");
    out.add("store.read_mb", static_cast<double>(read_bytes) / 1e6, "MB");
    out.add("store.compact_s", compact.seconds, "s");
    out.add("store.compressed_mb", static_cast<double>(compact.bytes_compressed) / 1e6, "MB");
    out.add("classify.s", total("classify"), "s");
    out.add("pipeline.observe_1t_s", total("pipeline.observe_1t"), "s");
    out.add("pipeline.observe_s", total("pipeline.observe"), "s");
    out.add("pipeline.finalize_s", total("pipeline.finalize"), "s");
    out.add("pipeline.snapshot_ms_p50", p50("pipeline.snapshot") * 1e3, "ms");
    out.add("pipeline.morsels_stolen", static_cast<double>(morsels_stolen), "count");
    out.add("stream.admit_ms_p50", median(follow.admit_ms), "ms");
    out.add("stream.profiles_evicted", static_cast<double>(follow.profiles_evicted), "count");
    out.add("report.characterize_ms", total("report.characterize") * 1e3, "ms");
    out.add("report.malicious_ms", total("report.malicious") * 1e3, "ms");
    out.add("report.render_ms", total("report.render") * 1e3, "ms");
    out.add("serve.handle_hit_us_p50", p50("serve.handle_hit") * 1e6, "us");
    out.add("serve.handle_miss_us_p50", p50("serve.handle_miss") * 1e6, "us");
    const double lookups =
        static_cast<double>(serve.cache.hits + serve.cache.misses);
    out.add("serve.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(serve.cache.hits) / lookups : 0.0,
            "ratio");
    out.add("serve.query_us_p99", quantile(serve.query_us, 0.99), "us");
    out.add("serve.query_samples", static_cast<double>(serve.query_us.size()), "count");
    out.add("serve.probe_ms_p50", median(serve.probe_ms), "ms");
    out.add("trace.total_s", trace_total, "s");
    out.add("trace.glue_share", glue / trace_total, "ratio");
    out.add("trace.overhead_ms",
            static_cast<double>(tracer.spans().size()) * span_cost_ns / 1e6, "ms");
    if (!config.trace_out.empty()) tracer.write_json(config.trace_out);
  } catch (const CheckFailed& e) {
    return fail(out, e);
  }
  out.print(true);
  return 0;
}

// ------------------------------------------------------------- set-up

int measure_setup(const fs::path& data_dir) {
  const auto start = Clock::now();
  const Dataset data = load_dataset(data_dir);
  std::printf("setup_s %.9f\n", seconds_since(start));
  return 0;
}

// ------------------------------------------------------------- peak RSS

int measure_peak_rss(const WorkloadSpec& spec, const fs::path& data_dir,
                     const fs::path& work, unsigned threads) {
  try {
    // Every phase of a measured round, once; the high-water mark after
    // each is printed for the record, the last line is the run's peak.
    const Dataset data = load_dataset(data_dir);
    std::printf("after load %.6f\n", peak_rss_mb());
    const auto report = run_batch(data, threads).report;
    std::printf("after batch %.6f\n", peak_rss_mb());
    run_follow(data, threads, work, nullptr);
    std::printf("after follow %.6f\n", peak_rss_mb());
    run_serve_round(data, report,
                    plan_queries(spec, *report, data, nullptr,
                                 client_threads(threads)));
    std::printf("after serve %.6f\n", peak_rss_mb());
    run_compact(data_dir, work);
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "perfbench rss: CHECK FAILED: %s\n", e.what());
    return 1;
  }
  std::printf("peak_rss_mb %.6f\n", peak_rss_mb());
  return 0;
}

}  // namespace perfbench
