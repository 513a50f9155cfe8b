#include "phases.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <barrier>
#include <random>
#include <set>
#include <thread>

#include "core/pipeline.hpp"
#include "core/stream.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace core = iotscope::core;
namespace serve = iotscope::serve;
namespace telescope = iotscope::telescope;

// ------------------------------------------------------------- batch

BatchResult run_batch(const Dataset& data, unsigned threads,
                      ReferenceTally* tally) {
  BatchResult result;
  const auto start = Clock::now();
  core::PipelineOptions options;
  options.threads = threads;
  core::AnalysisPipeline pipeline(data.inventory, options);
  const std::function<void(const iotscope::net::FlowBatch&)> visit =
      [&](const iotscope::net::FlowBatch& batch) {
        if (tally) tally->add(batch);
        result.records += batch.size();
        pipeline.observe(batch);
      };
  telescope::ScanOptions scan;
  scan.prefetch = 2;  // what `iotscope analyze` uses
  data.store.scan(visit, scan);
  auto report = std::make_shared<const Report>(pipeline.finalize());
  result.text = render_all(*report, data);
  result.seconds = seconds_since(start);
  result.report = std::move(report);
  return result;
}

// ------------------------------------------------------------- follow

FollowResult run_follow(const Dataset& data, unsigned threads,
                        const fs::path& work, const ReferenceTally* ref,
                        Tracer* tracer) {
  FollowResult result;
  const fs::path dir = work / "follow";
  {
    SpanScope span(tracer, "bench.publish");
    fs::remove_all(dir);
  }
  core::StreamOptions stream_options;
  stream_options.snapshot_every = kSnapshotEvery;
  core::PipelineOptions pipeline_options;
  pipeline_options.threads = threads;
  std::optional<telescope::FlowTupleStore> followed;
  std::optional<core::StreamingStudy> stream;
  {
    SpanScope span(tracer, "stream.open");
    followed.emplace(dir);
    stream.emplace(data.inventory, *followed, pipeline_options, stream_options);
  }

  std::uint64_t expected_packets = 0;  // of the hours admitted so far
  std::uint64_t last_epoch = 0;
  for (const int interval : data.store.intervals()) {
    {
      SpanScope span(tracer, "bench.publish");
      const fs::path source = hour_file(data.store.directory(), interval);
      // A hard link appears complete in one step, like put()'s rename.
      fs::create_hard_link(source, dir / source.filename());
    }
    const auto visible = Clock::now();
    std::size_t admitted = 0;
    {
      SpanScope span(tracer, "stream.poll_once");
      admitted = stream->poll_once();
    }
    const double admit_s = seconds_since(visible);
    check(admitted == 1, "follow: hour " + std::to_string(interval) +
                             " admitted " + std::to_string(admitted) +
                             " times");
    result.admit_s += admit_s;
    if (ref) expected_packets += ref->hour_packets().at(interval);

    const auto published = stream->latest_published();
    const std::uint64_t epoch = published ? published->epoch : 0;
    if (epoch == last_epoch) {
      result.admit_ms.push_back(admit_s * 1e3);
      continue;
    }
    result.publish_ms.push_back(seconds_since(visible) * 1e3);
    check(epoch > last_epoch, "follow: snapshot epoch went backwards");
    last_epoch = epoch;
    if (!ref) continue;
    const Report& snap = published->report;
    check(snap.total_packets + snap.unattributed_packets == expected_packets,
          "follow: snapshot at hour " + std::to_string(interval) + " holds " +
              std::to_string(snap.total_packets + snap.unattributed_packets) +
              " packets, the hours admitted so far hold " +
              std::to_string(expected_packets));
  }
  if (ref) result.records = ref->records();
  result.snapshots = stream->stats().snapshots_published;
  result.profiles_evicted = stream->stats().profiles_evicted;
  check(result.snapshots == data.store.intervals().size() / kSnapshotEvery,
        "follow: " + std::to_string(result.snapshots) + " snapshots published");
  Report final_report;
  {
    SpanScope span(tracer, "stream.finalize");
    final_report = stream->finalize();
  }
  {
    SpanScope span(tracer, "bench.check");  // rendered only to compare
    result.text = render_all(final_report, data);
  }
  SpanScope span(tracer, "bench.publish");
  fs::remove_all(dir);
  return result;
}

// ------------------------------------------------------------- serve

namespace {

std::string percent_encode(const std::string& text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += c;
    } else {
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 15];
    }
  }
  return out;
}

Query timeline_query(const Dataset& data, const ReferenceTally* ref,
                     std::uint32_t device) {
  Query query{"/report/device/" +
                  data.inventory.devices()[device].ip.to_string() + "/timeline",
              std::nullopt};
  if (ref) query.packets = ref->device_packets(device);
  return query;
}

/// The Zipf population: summary, top-port, country, ISP and device
/// timeline targets, in a seeded random rank order.
std::vector<Query> zipf_population(const Report& report, const Dataset& data,
                                   const ReferenceTally* ref,
                                   std::mt19937_64& rng) {
  std::vector<Query> targets{{"/report/summary", std::nullopt}};
  for (int k = 1; k <= 16; ++k) {
    targets.push_back({"/report/ports/top?k=" + std::to_string(k), std::nullopt});
  }
  std::set<unsigned> countries;
  std::set<unsigned> isps;
  std::size_t timelines = 0;
  for (const auto& traffic : report.devices) {
    const auto& device = data.inventory.devices()[traffic.device];
    if (countries.size() < 50 && countries.insert(device.country).second) {
      targets.push_back(
          {"/report/country/" +
               percent_encode(data.inventory.country_name(device.country)),
           std::nullopt});
    }
    if (isps.size() < 100 && isps.insert(device.isp).second) {
      targets.push_back(
          {"/report/isp/" + percent_encode(data.inventory.isp_name(device.isp)),
           std::nullopt});
    }
    if (timelines < 150) {
      targets.push_back(timeline_query(data, ref, traffic.device));
      ++timelines;
    }
  }
  std::shuffle(targets.begin(), targets.end(), rng);
  return targets;
}

}  // namespace

QueryPlan plan_queries(const WorkloadSpec& spec, const Report& report,
                       const Dataset& data, const ReferenceTally* ref,
                       unsigned clients) {
  std::mt19937_64 rng(spec.scenario.seed ^ 0x5e77e11ULL);
  std::vector<Query> population;
  std::discrete_distribution<std::size_t> zipf;
  if (spec.zipf_keys) {
    population = zipf_population(report, data, ref, rng);
    std::vector<double> weights;
    for (std::size_t rank = 1; rank <= population.size(); ++rank) {
      weights.push_back(1.0 / static_cast<double>(rank));
    }
    zipf = std::discrete_distribution<std::size_t>(weights.begin(), weights.end());
  } else {
    for (const auto& traffic : report.devices) {
      population.push_back(timeline_query(data, ref, traffic.device));
    }
  }
  check(!population.empty(), "serve: no query targets");
  std::uniform_int_distribution<std::size_t> uniform(0, population.size() - 1);

  QueryPlan plan;
  plan.per_client.resize(clients);
  for (unsigned c = 0; c < clients; ++c) {
    plan.per_client[c].push_back({"/report/summary", std::nullopt});
    for (std::size_t q = 0; q < spec.queries / clients; ++q) {
      plan.per_client[c].push_back(
          population[spec.zipf_keys ? zipf(rng) : uniform(rng)]);
    }
  }
  return plan;
}

namespace {

/// One /healthz request on a fresh connection, given `limit_ms` to answer
/// in full. Returns the elapsed time, or nullopt past the limit.
std::optional<double> probe_healthz(std::uint16_t port, double limit_ms) {
  const auto start = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  check(fd >= 0, "probe: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::optional<double> answered;
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    std::string response;
    for (;;) {
      const double left = limit_ms - seconds_since(start) * 1e3;
      if (left <= 0) break;
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left) + 1) <= 0) continue;
      char chunk[1024];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
      const auto head_end = response.find("\r\n\r\n");
      if (head_end == std::string::npos) continue;
      const auto length = response.find("Content-Length: ");
      if (length == std::string::npos) break;
      const auto body = std::stoul(response.substr(length + 16));
      if (response.size() >= head_end + 4 + body) {
        const double elapsed = seconds_since(start) * 1e3;
        if (response.rfind("HTTP/1.1 200", 0) == 0 && elapsed <= limit_ms) {
          answered = elapsed;
        }
        break;
      }
    }
  }
  ::close(fd);
  return answered;
}

}  // namespace

ServeResult run_serve_round(const Dataset& data,
                            const std::shared_ptr<const Report>& report,
                            const QueryPlan& plan, Tracer* tracer) {
  ServeResult result;
  serve::ServerOptions options;
  options.threads = 2;
  std::optional<SpanScope> span;
  span.emplace(tracer, "serve.start");
  serve::ReportServer server(
      data.inventory, [report] { return serve::Snapshot{1, report}; }, options);
  server.start();
  span.reset();

  const auto clients = plan.per_client.size();
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::string> errors(clients);
  std::barrier ready(static_cast<std::ptrdiff_t>(clients) + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::optional<serve::HttpClient> client;
      try {
        client.emplace(server.port());
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
      ready.arrive_and_wait();
      if (!client) return;
      latencies[c].reserve(plan.per_client[c].size());
      for (const auto& [target, packets] : plan.per_client[c]) {
        const auto sent = Clock::now();
        const auto response = client->get(target);
        latencies[c].push_back(seconds_since(sent) * 1e6);
        if (!response || response->status != 200 || !json_valid(response->body)) {
          errors[c] = "GET " + target + " -> " +
                      (response ? std::to_string(response->status) +
                                      " " + response->body.substr(0, 80)
                                : std::string("connection broke"));
          return;
        }
        if (target == "/report/summary") {
          const auto total = json_uint_field(response->body, "total_packets");
          const auto unattributed =
              json_uint_field(response->body, "unattributed_packets");
          const auto devices =
              json_uint_field(response->body, "compromised_devices");
          if (total != report->total_packets ||
              unattributed != report->unattributed_packets ||
              devices != report->discovered_total()) {
            errors[c] = "summary disagrees with the batch report: " +
                        response->body;
            return;
          }
        }
        if (packets && json_uint_field(response->body, "packets") != packets) {
          errors[c] = "GET " + target + ": device packets disagree with the "
                      "reference tally (" + std::to_string(*packets) + "): " +
                      response->body.substr(0, 200);
          return;
        }
      }
    });
  }
  span.emplace(tracer, "serve.queries");
  ready.arrive_and_wait();
  const auto start = Clock::now();
  for (auto& thread : threads) thread.join();
  const double wall = seconds_since(start);
  span.reset();
  for (const auto& error : errors) check(error.empty(), "serve: " + error);

  for (auto& per_client : latencies) {
    result.query_us.insert(result.query_us.end(), per_client.begin(),
                           per_client.end());
  }
  result.queries_per_s = static_cast<double>(result.query_us.size()) / wall;
  result.cache = server.cache_stats();
  result.operations = result.query_us.size();

  // Starvation probes: hold every worker with an idle keep-alive
  // connection, then ask /healthz on fresh connections.
  {
    SpanScope probes(tracer, "serve.probes");
    std::vector<serve::HttpClient> idle;
    for (unsigned w = 0; w < options.threads; ++w) {
      idle.emplace_back(server.port());
      const auto response = idle.back().get("/healthz");
      check(response && response->status == 200,
            "serve: idle-connection /healthz failed");
      ++result.operations;
    }
    for (std::size_t p = 0; p < kProbes; ++p) {
      const auto answered = probe_healthz(server.port(), kProbeLimitMs);
      result.probe_ms.push_back(answered.value_or(kProbeLimitMs));
      if (!answered) ++result.probes_failed;
      ++result.operations;
    }
  }
  SpanScope stop(tracer, "serve.stop");
  server.stop();
  return result;
}

// ------------------------------------------------------------- compact

namespace {

/// Record-for-record equality, column by column.
bool same_columns(const iotscope::net::FlowBatch& a,
                  const iotscope::net::FlowBatch& b) {
  return a.interval == b.interval && a.src == b.src && a.dst == b.dst &&
         a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.proto == b.proto && a.tcp_flags == b.tcp_flags && a.ttl == b.ttl &&
         a.ip_len == b.ip_len && a.pkt_count == b.pkt_count;
}

}  // namespace

CompactResult run_compact(const fs::path& dataset_dir, const fs::path& work,
                          Tracer* tracer) {
  const telescope::FlowTupleStore source(dataset_dir / "compact_src");
  const fs::path dir = work / "compact";
  std::optional<SpanScope> glue;
  glue.emplace(tracer, "bench.publish");
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const int interval : source.intervals()) {
    const fs::path file = hour_file(source.directory(), interval);
    fs::copy_file(file, dir / file.filename());
  }
  glue.reset();
  const telescope::FlowTupleStore store(dir);

  CompactResult result;
  telescope::CompactStats stats;
  {
    SpanScope span(tracer, "store.compact");
    const auto start = Clock::now();
    stats = store.compact();  // verify = true by default
    result.seconds = seconds_since(start);
  }
  result.records = stats.records;
  result.bytes_raw = stats.bytes_raw;
  result.bytes_compressed = stats.bytes_compressed;

  SpanScope verify(tracer, "bench.check");
  const auto hours = source.intervals();
  check(stats.hours == hours.size(),
        "compact: converted " + std::to_string(stats.hours) + " of " +
            std::to_string(hours.size()) + " hours");
  check(stats.bytes_compressed < stats.bytes_raw,
        "compact: compressed bytes not below raw bytes");
  for (const int interval : hours) {
    check(hour_file(dir, interval).extension() == ".iftc",
          "compact: hour " + std::to_string(interval) + " not compressed");
    const auto compacted = store.get_batch(interval);
    const auto original = source.get_batch(interval);
    check(compacted && original && same_columns(*compacted, *original),
          "compact: hour " + std::to_string(interval) +
              " decodes differently from its raw original");
  }
  fs::remove_all(dir);
  return result;
}

}  // namespace perfbench
