// The inference-and-characterization pipeline — the paper's core
// methodology. A streaming pass over hourly flowtuple files: each flow's
// source IP is joined against the IoT inventory (correlation, Section
// III-B), classified by the darknet taxonomy (Section IV), and
// accumulated into every per-device, per-country, per-port, and per-hour
// aggregate the evaluation reports.
//
// Threading model: each observe() call partitions the hour's records by
// source IP into N buckets (N = PipelineOptions::threads, default the
// hardware concurrency) and fans them out over N worker-owned
// accumulators (ShardState). The default scheduler chops the buckets into
// fixed-size morsels that workers pull with work stealing, so one
// heavy-hitter source that pins an entire bucket cannot idle the other
// workers; the static scheduler (one bucket per worker, no stealing) is
// kept as the before-variant. Under stealing any worker may touch any
// source, so every accumulated quantity is merged with commutative-exact
// operations only (integral sums, min/max, bitwise OR, set unions) and
// the per-hour fan-in plus the consolidation at each snapshot() and at
// finalize() reduce the partials in fixed shard order — the resulting
// Report is byte-identical across the sequential, static, and stealing
// paths at every thread count. All hourly series hold integral packet
// counts well below 2^53, so even the double accumulators are exact and
// order-insensitive.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "analysis/timeseries.hpp"
#include "core/classifier.hpp"
#include "core/notify.hpp"
#include "core/report.hpp"
#include "inventory/database.hpp"
#include "net/flow_batch.hpp"
#include "net/flowtuple.hpp"
#include "obs/metrics.hpp"
#include "util/flat_hash.hpp"
#include "util/task_scheduler.hpp"
#include "util/thread_pool.hpp"

namespace iotscope::core {

/// Records per stealing morsel. Small enough that an hour dominated by
/// one source still splits into hundreds of units across the workers;
/// large enough that the per-morsel scheduling cost (one CAS plus a
/// stage-timer read) is noise against 2k record walks. Exposed so the
/// benchmarks can compute the machine-independent load-balance model
/// (critical path ≈ records/threads + one trailing morsel).
inline constexpr std::uint32_t kMorselRecords = 2048;

/// How the threaded fan-out distributes partitioned records to workers.
enum class ShardScheduler {
  /// Buckets are chopped into fixed-size morsels pulled from per-worker
  /// deques with work stealing — a skewed partition (one hot source)
  /// drains across all workers instead of serializing on one.
  Stealing,
  /// One whole bucket per worker (the historical path): collapses to
  /// single-worker throughput when one source dominates the hour.
  Static,
  /// Task-graph execution over util::TaskScheduler (DESIGN.md §16):
  /// each hour is a dependency subgraph — decode parts, classify,
  /// partition, one observe task per morsel, fan-in — and observe_async
  /// lets hour N+1's decode/classify/partition run concurrently with
  /// hour N's observe/fan-in, bounded by the max-in-flight-hours
  /// credit. Synchronous observe() still works (the fan-out runs as a
  /// flat task batch). The Report is byte-identical to the other
  /// schedulers: out-of-order partial folds are legal because every
  /// merged quantity is commutative-exact and first sightings are
  /// min-tracked by (submission sequence, record index).
  Graph,
};

/// Pipeline options.
struct PipelineOptions {
  TaxonomyOptions taxonomy;
  /// Spike threshold for DoS-interval detection: an interval is a spike
  /// when its backscatter exceeds `spike_multiple` x the hourly mean.
  double spike_multiple = 3.0;
  /// Minimum packets within one hour before a non-inventory source is
  /// promoted to an UnknownSourceProfile (fingerprinting substrate); keeps
  /// one-packet background radiation out of memory.
  std::uint64_t unknown_profile_hourly_floor = 4;
  /// Number of analysis shards/worker threads. 0 = auto (the hardware
  /// concurrency); 1 = sequential. The Report is identical for every
  /// value — threads only trade wall-clock for cores.
  unsigned threads = 0;
  /// Worker scheduling policy for the threaded path (ignored when the
  /// resolved thread count is 1, except Graph, which degenerates to
  /// inline serial task execution). The Report is identical either way.
  ShardScheduler scheduler = ShardScheduler::Stealing;
  /// Graph scheduler only: how many hours may be in flight at once
  /// (decode/classify of later hours overlapping observe/fan-in of
  /// earlier ones). Bounds resident batch memory to this many hours;
  /// 1 disables cross-hour overlap without changing the task graph.
  unsigned max_inflight_hours = 3;
};

/// Streaming analysis over hourly flowtuple files.
///
/// Usage: construct with the inventory, call observe() for each hour (in
/// any order; hours are independent except for per-hour distinct counts),
/// then finalize() exactly once to obtain the Report.
class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(const inventory::IoTDeviceDatabase& db,
                            PipelineOptions options = {});
  ~AnalysisPipeline();

  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  /// Optional near-real-time sink invoked on each device's first
  /// sighting (see core/notify.hpp). Set before the first observe().
  /// Invoked in record order, after the hour's shard fan-in — from the
  /// coordinating thread on the synchronous paths, or from the hour's
  /// fan-in task under the Graph scheduler (fan-ins of different hours
  /// never overlap, so the sink needs no locking either way).
  void set_discovery_sink(DiscoverySink sink) { discovery_sink_ = std::move(sink); }

  /// Processes one hourly flowtuple batch (fan-out across shards, fan-in
  /// of the hour's distinct-destination counts). The columnar hot path:
  /// one shared classification pass tags every record up front, then
  /// every shard walks the columns it needs. A batch whose tag_recipe
  /// matches this pipeline's TaxonomyOptions is consumed as-is (tag once
  /// where the batch is born); any other recipe — untagged included — is
  /// re-classified here, so foreign options never leak into the report.
  void observe(const net::FlowBatch& batch);

  /// AoS convenience: converts into a reused scratch batch and runs the
  /// columnar path. Splitting an hour across several HourlyFlows calls
  /// accumulates identically, as before.
  void observe(const net::HourlyFlows& flows);

  /// Retained AoS record walk (classify-at-point-of-use over the record
  /// structs, no shared tag column) — the pre-batch implementation, kept
  /// as the before-variant for bench_perf_micro and the batch/AoS
  /// equivalence test. Produces the identical Report.
  void observe_aos(const net::HourlyFlows& flows);

  /// Deferred decode of one slice of an hour (see
  /// telescope::FlowTupleStore::hour_loaders; any callable returning a
  /// FlowBatch works — tests use in-memory producers).
  using HourLoader = std::function<net::FlowBatch()>;

  /// Invoked when an asynchronously submitted hour has fully folded
  /// into the pipeline (its fan-in completed), before the next hour's
  /// observe tasks may start — so the hook can safely snapshot() or
  /// evict. `ok` is false when the pipeline has failed and the hour was
  /// skipped (drain() will rethrow the error). Under the Graph
  /// scheduler the hook runs on a scheduler lane; on the synchronous
  /// fallback it runs inline on the calling thread. Must not throw.
  using AfterHourHook = std::function<void(const net::FlowBatch&, bool ok)>;

  /// Asynchronous hour submission — the stage-overlap entry point
  /// (DESIGN.md §16). Under the Graph scheduler this enqueues the
  /// hour's task subgraph and returns once an in-flight-hours credit is
  /// available (max_inflight_hours bounds resident memory): hour N+1's
  /// decode/classify/partition tasks then run concurrently with hour
  /// N's observe/fan-in. Hours fold in submission order (the fan-in
  /// chain is fenced), so reports stay byte-identical to the
  /// synchronous schedulers. Under any other scheduler it degenerates
  /// to a synchronous observe() plus the hook — one code path for all
  /// callers. Call drain() before finalize()/snapshot() or reading
  /// hook-written state from the submitting thread.
  void observe_async(net::FlowBatch batch, AfterHourHook after = {});

  /// Loader variant: the hour's decode itself becomes parallel tasks
  /// (one per loader; compressed hours split at block boundaries) whose
  /// outputs are spliced in order before classification. An empty
  /// loader list (absent hour) is a no-op.
  void observe_async(std::vector<HourLoader> loaders, AfterHourHook after = {});

  /// Blocks until every asynchronously submitted hour has folded, and
  /// rethrows the first task error, if any. No-op on the synchronous
  /// schedulers, or when called from inside a scheduler task (the
  /// dependency chain already provides the ordering).
  void drain();

  /// Consolidates the lane partials (see snapshot()), completes the
  /// cross-hour statistics, and returns the report. The pipeline must
  /// not be observed again afterwards.
  Report finalize();

  /// Point-in-time report over everything observed so far; observe()
  /// may continue afterwards. Consolidating: every lane partial is
  /// folded into the coordinator-owned merged state and the lanes are
  /// cleared, so a snapshot costs what changed since the previous one
  /// plus one pass over the merged ledgers — not a re-merge of the whole
  /// run. The folds are the commutative-exact merges the lanes already
  /// rely on, so a snapshot after hour N is byte-identical to a batch
  /// finalize() over hours 0..N, and one taken after the last observe()
  /// to finalize()'s report.
  ///
  /// Call it from the thread that observes, or from an after-hour hook
  /// (DESIGN.md §8): it mutates the lanes, so it must never overlap an
  /// observe of another thread.
  Report snapshot();

  /// Moves unknown-source profiles whose last activity predates
  /// `before_interval` out of the hot per-source map into a compact
  /// frozen archive, and returns how many moved. Bounds the hot
  /// first-seen state a long-running stream keeps hashable; a frozen
  /// source that re-emerges is re-promoted into the hot map and the two
  /// partials are folded back per IP at report build with the same
  /// commutative-exact operations as every other merge (summed packet
  /// tallies, min first / max last interval) — eviction is invisible in
  /// the final report.
  std::size_t evict_idle_unknown_profiles(int before_interval);

  /// Unknown-source profiles currently resident in the hot map (the
  /// evictable working set; the frozen archive is not counted).
  std::size_t hot_unknown_profiles() const noexcept {
    return unknown_profiles_.size();
  }

  const inventory::IoTDeviceDatabase& database() const noexcept {
    return *db_;
  }

  const PipelineOptions& options() const noexcept { return options_; }

  /// Resolved shard/worker count (>= 1).
  unsigned threads() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

 private:
  struct ShardState;
  struct HourSlot;

  /// Per-hour tally for one non-inventory source; summed across workers
  /// at fan-in before the promotion floor is applied, so the floor sees
  /// the source's whole hour no matter how its records were scheduled.
  struct UnknownHourTally {
    std::uint64_t packets = 0;
    std::uint64_t tcp_syn = 0;
    std::uint64_t iot_port = 0;
  };

  /// One unit of stolen work: a contiguous slice of one partition
  /// bucket's record-index list.
  struct Morsel {
    std::uint32_t shard = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Stable source-IP -> shard assignment (multiplicative hash).
  std::size_t shard_of(std::uint32_t src) const noexcept;

  /// Folds every lane partial, in fixed shard order, into the merged
  /// state (merged_ plus the ledgers in report_) and clears the lanes,
  /// which then hold only what later hours add. Also folds the frozen
  /// unknown-source partials evicted since the previous call.
  void consolidate();

  /// Completes every statistic derived from the merged state into
  /// `report`, a copy of report_ (or report_ itself at finalize()).
  void complete(Report& report) const;

  /// Shared fan-out/fan-in body, parameterized over the record access
  /// policy (columnar BatchView or AoS RowsView — both defined in
  /// pipeline.cpp, where every instantiation lives).
  template <typename View>
  void observe_view(View view, int interval);

  /// The per-hour cross-shard reduction (distinct-destination unions,
  /// scanner-device union, unknown-source promotion, first-sighting
  /// notifications). Runs after every shard/morsel task of the hour has
  /// completed — inline at the tail of observe_view, or as the hour's
  /// fan-in task under the Graph scheduler; fan-ins of different hours
  /// are serialized by the fence chain, so the coordinator-owned state
  /// it touches needs no locking.
  void fan_in_hour(int interval, bool collect_discoveries);

  /// Builds and enqueues one hour's task subgraph (Graph scheduler
  /// only). Blocks until an in-flight-hours credit is free.
  void submit_hour(net::FlowBatch batch, std::vector<HourLoader> loaders,
                   AfterHourHook after);

  /// Runs in the hour's fan-in task `finally` — also when fail-fast
  /// skipped the hour — so the after-hook, fence release, credit, and
  /// gauges always settle and a failed pipeline still drains.
  void finish_hour(HourSlot& slot);

  const inventory::IoTDeviceDatabase* db_;
  PipelineOptions options_;
  /// The per-hour series written at fan-in plus the merged ledgers of
  /// consolidate(); its derived fields stay empty until finalize().
  Report report_;
  bool finalized_ = false;
  DiscoverySink discovery_sink_;

  // Shared read-only lookup: dst port -> scan service row (-1 = unnamed).
  std::array<int, 65536> port_to_service_;
  int other_service_ = -1;

  // Observability handles (obs/metrics.hpp), looked up once here so the
  // per-hour paths never touch the registry mutex. Instrumentation is at
  // hour/morsel granularity — the per-record loops carry none.
  struct Obs {
    obs::Stage& observe;    ///< whole observe() call
    obs::Stage& classify;   ///< shared per-batch classification pass
    obs::Stage& partition;  ///< record partitioning (threaded path only)
    obs::Stage& shard;      ///< per-shard / per-morsel accumulation task
    obs::Stage& fanin;      ///< per-hour cross-shard union + notifications
    obs::Stage& finalize;   ///< finalize() total
    obs::Stage& snapshot;   ///< snapshot() total
    obs::Stage& merge;      ///< consolidate(): the shard-ordered fold
    obs::Counter& hours;    ///< observe() calls
    obs::Counter& records;  ///< flowtuple records seen
    obs::Counter& batch_records;  ///< records arriving as FlowBatch columns
    obs::Counter& batch_bytes;    ///< record payload bytes of those batches
    obs::Counter& morsel_claimed;  ///< morsels run from a worker's own slice
    obs::Counter& morsel_stolen;   ///< morsels obtained through stealing
    /// Partition imbalance per hour: max/mean bucket records x 100 (100 =
    /// perfectly even; threads x 100 = everything in one bucket). The
    /// snapshot max is the run's worst hour.
    obs::Gauge& shard_skew;
    /// High-water of batch bytes resident across the prefetch queue
    /// (written by FlowTupleStore::for_each; looked up here so every
    /// snapshot carries the gauge even on prefetch-free runs).
    obs::Gauge& batch_mem;
    /// Wall-clock span of each asynchronously submitted hour, from
    /// submission to fan-in completion. Overlap evidence: when hours
    /// overlap, the sum of these spans exceeds the run's wall clock
    /// (each span covers time shared with neighbouring hours).
    obs::Stage& overlap;
    /// Hours currently in flight under the Graph scheduler (submitted,
    /// fan-in not yet complete). The snapshot max is the run's deepest
    /// overlap — ≥ 2 proves hour N+1 was active while hour N folded.
    obs::Gauge& inflight_hours;
    Obs();
  };
  Obs obs_;

  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when threads == 1
  std::uint32_t observe_seq_ = 0;  ///< observe() call counter (merge order)
  std::vector<std::vector<std::uint32_t>> partition_;  ///< per-shard record indices
  std::vector<Morsel> morsels_;                        ///< stealing work list, reused
  util::FlatSet<std::uint32_t> union_scratch_;         ///< fan-in dst-IP union
  analysis::HourlySeries scanners_per_hour_;  ///< coordinator-owned
  /// Tallies, series, pair sets and victim series folded out of the
  /// lanes by consolidate(). The merged device ledgers live in
  /// report_.devices (first-sighting order) and report_.device_index.
  std::unique_ptr<ShardState> merged_;
  /// Inventory index -> position in report_.devices (kNotMerged when the
  /// device has no merged ledger yet); sized to the inventory on first
  /// use.
  std::vector<std::uint32_t> merged_position_;
  /// Realm of each merged ledger (1 = consumer), row-aligned with
  /// report_.devices, so the derived counts never consult the inventory.
  std::vector<std::uint8_t> merged_consumer_;
  /// Devices already announced to the discovery sink. Under stealing a
  /// device's ledger can be created in several worker partials (even in
  /// different hours), so first-sighting dedup must be global.
  util::FlatSet<std::uint32_t> discovered_;
  /// Cross-hour unknown-source profiles, coordinator-owned: promotion
  /// happens at fan-in on the per-hour totals, never per worker.
  std::unordered_map<std::uint32_t, UnknownSourceProfile> unknown_profiles_;
  /// Profiles moved out of the hot map by evict_idle_unknown_profiles()
  /// since the last consolidate(), which folds them per IP into
  /// frozen_folded_; a report folds that with the hot map per IP.
  std::vector<UnknownSourceProfile> frozen_unknown_;
  /// frozen_unknown_ partials folded per IP by past consolidate() calls.
  util::FlatMap<std::uint32_t, UnknownSourceProfile> frozen_folded_;
  util::FlatMap<std::uint32_t, UnknownHourTally> unknown_scratch_;  ///< fan-in sum
  net::FlowBatch batch_scratch_;      ///< AoS observe() conversion, reused
  std::vector<ClassTag> tag_scratch_;  ///< per-batch tag column, reused

  // ---- Graph-scheduler state (null/empty otherwise) ----
  /// In-flight hour slots, reused round-robin (seq % size). Reuse is
  /// safe because fan-ins complete in submission order: the credit that
  /// admits hour N+k (k = slot count) is released by hour N's fan-in,
  /// and hour N is the slot's previous occupant.
  std::vector<std::unique_ptr<HourSlot>> hour_slots_;
  /// Fence released by the most recently submitted hour's fan-in; the
  /// next hour's plan task depends on it, serializing begin_hour/fan-in
  /// across hours while leaving decode/classify/partition free to
  /// overlap.
  util::TaskScheduler::TaskId fence_ = util::TaskScheduler::kNoTask;
  std::mutex credit_mutex_;
  std::condition_variable credit_cv_;
  unsigned credits_available_ = 0;
  /// Declared last so its destructor — which drains outstanding tasks,
  /// running or skipping them with their finally hooks, then joins the
  /// workers — runs before the hour slots and shard state those tasks
  /// reference are destroyed.
  std::unique_ptr<util::TaskScheduler> graph_;
};

}  // namespace iotscope::core
