// The four user-facing paths, each driven through the program's public
// functions with default scheduler and options, each checked against the
// benchmark's reference tallies. Every phase takes an optional tracer; with
// none it records no spans.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/cache.hpp"
#include "trace.hpp"

namespace perfbench {

// ------------------------------------------------------------- batch

struct BatchResult {
  double seconds = 0;
  std::uint64_t records = 0;
  std::string text;  ///< rendered reports
  std::shared_ptr<const Report> report;
};

/// Store scan -> observe -> finalize -> characterize -> maliciousness ->
/// render, as `iotscope analyze` runs it. With `tally`, every decoded hour
/// is also added to it (untimed use only: the warm-up pass).
BatchResult run_batch(const Dataset& data, unsigned threads,
                      ReferenceTally* tally = nullptr);

// ------------------------------------------------------------- follow

struct FollowResult {
  double admit_s = 0;  ///< total time inside poll_once()
  std::uint64_t records = 0;
  std::vector<double> publish_ms;  ///< snapshot-due hours: visible -> epoch
  std::vector<double> admit_ms;    ///< hours that publish no snapshot
  std::uint64_t snapshots = 0;
  std::uint64_t profiles_evicted = 0;
  std::string text;  ///< rendered final report
};

/// Publishes the store's hours one at a time into a fresh directory under
/// `work` and admits each with StreamingStudy::poll_once() (pipeline at
/// `threads`), snapshotting every kSnapshotEvery hours. Checks every
/// snapshot against `ref` (no checks without one).
FollowResult run_follow(const Dataset& data, unsigned threads,
                        const fs::path& work, const ReferenceTally* ref,
                        Tracer* tracer = nullptr);

// ------------------------------------------------------------- serve

/// One query target and, for a device timeline planned with a reference
/// tally, the device's packet count the answer must carry.
struct Query {
  std::string target;
  std::optional<std::uint64_t> packets;
};

/// Pre-sampled queries, one sequence per client connection. Every
/// sequence starts with /report/summary.
struct QueryPlan {
  std::vector<std::vector<Query>> per_client;
};

/// Draws the workload's queries from its seed. With `ref`, every device
/// timeline query is checked against the tally's packets for the device.
QueryPlan plan_queries(const WorkloadSpec& spec, const Report& report,
                       const Dataset& data, const ReferenceTally* ref,
                       unsigned clients);

struct ServeResult {
  double queries_per_s = 0;
  std::vector<double> query_us;
  std::vector<double> probe_ms;
  std::uint64_t probes_failed = 0;
  std::uint64_t operations = 0;  ///< queries + idle-connection requests + probes
  iotscope::serve::CacheStats cache;
};

/// One closed-loop round against a fresh 2-worker server over `report`,
/// followed by the starvation probes.
ServeResult run_serve_round(const Dataset& data,
                            const std::shared_ptr<const Report>& report,
                            const QueryPlan& plan, Tracer* tracer = nullptr);

// ------------------------------------------------------------- compact

struct CompactResult {
  double seconds = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_compressed = 0;
};

/// Copies the raw compaction subset into `work`, compacts it with
/// round-trip verification on, and checks every hour decodes equal to its
/// raw original in fewer bytes.
CompactResult run_compact(const fs::path& dataset_dir, const fs::path& work,
                          Tracer* tracer = nullptr);

}  // namespace perfbench
