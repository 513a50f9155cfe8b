// The streaming study engine — continuous watermarked ingestion of a
// live telescope store (ROADMAP item: the daemon the batch pipeline
// grows into). Where run_study synthesizes and analyzes one closed
// dataset, StreamingStudy follows a FlowTupleStore while a capture
// process is still rotating hourly files into it, and keeps a current
// report available the whole time:
//
//  * Watermark-ordered admission. Hours are admitted in interval order
//    as their files appear (the store's atomic rename publication means
//    a visible file is a complete hour). The watermark is one past the
//    highest admitted interval; an hour that surfaces below it arrived
//    after the merged reduction already moved past its slot, so it is
//    dropped and counted (`stream.late_hours`) rather than admitted out
//    of order — exactly the late-data discipline of a streaming
//    dataflow watermark.
//
//  * Incremental folding. Each admitted hour runs the pipeline's normal
//    sharded observe(); because every accumulated quantity merges with
//    commutative-exact operations (see core/pipeline.hpp), the running
//    state after hour N is byte-equivalent to a batch run over hours
//    0..N — the stream pays no precision or determinism tax.
//
//  * Periodic immutable snapshots. Every `snapshot_every` admitted
//    hours the engine builds a full Report via the pipeline's
//    consolidating snapshot(), which folds only what the lanes gathered
//    since the previous one, and publishes it — stamped with a
//    monotonically increasing epoch — through an atomic shared_ptr:
//    readers on other threads (the serve/ query workers) load the
//    pointer lock-free and then read an immutable object at leisure
//    while ingestion continues. The final snapshot equals finalize()'s
//    batch report byte for byte.
//
//  * Corrupt-hour quarantine. A published hour whose bytes fail to
//    decode (torn .iftc block, truncated records, hostile header — any
//    util::IoError) must not kill a 24/7 daemon: the hour is skipped,
//    counted (`stream.corrupt_hours`), logged once, and the watermark
//    advances past it — folding nothing is byte-equivalent to the hour
//    never having existed, so the stream stays byte-identical to a
//    batch run over the surviving hours.
//
//  * Bounded memory. Cold unknown-source first-seen state (the one
//    per-source map that grows with the source population, not the
//    inventory) is evicted to a frozen archive once idle for
//    `evict_after_hours` behind the watermark, counted in
//    `stream.evicted`. Eviction is invisible in report bytes — frozen
//    partials fold back commutative-exactly at snapshot/finalize.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "inventory/database.hpp"
#include "obs/metrics.hpp"
#include "telescope/store.hpp"

namespace iotscope::core {

/// One published snapshot: an immutable Report stamped with the epoch it
/// was published under. Epochs are assigned by the publishing study and
/// increase by one per publication (periodic snapshot, explicit
/// publish_snapshot(), or finalize()), so a consumer that caches derived
/// artifacts — the serve/ query layer keys rendered responses on
/// (epoch, query) — invalidates naturally when a new snapshot lands.
struct PublishedReport {
  std::uint64_t epoch = 0;
  Report report;
};

/// Streaming-engine knobs (pipeline knobs live in PipelineOptions).
struct StreamOptions {
  /// Publish an immutable snapshot every N admitted hours; 0 publishes
  /// no periodic snapshots (explicit publish_snapshot()/finalize() only).
  int snapshot_every = 24;
  /// Freeze unknown-source profiles whose last activity is at least this
  /// many hours behind the watermark; 0 never evicts.
  int evict_after_hours = 6;
  /// How long follow() sleeps between store polls that found nothing.
  std::chrono::milliseconds poll_interval{5};
};

/// Streaming counters, all cumulative over the engine's lifetime.
struct StreamStats {
  /// Hours accepted at/above the watermark — including quarantined
  /// corrupt hours, so snapshot cadence and drain predicates behave the
  /// same whether an hour decoded or not.
  std::uint64_t hours_admitted = 0;
  std::uint64_t hours_late = 0;         ///< below-watermark, dropped
  /// Admitted hours whose file failed to decode (util::IoError: torn
  /// .iftc, truncated records, hostile header). The hour is skipped and
  /// the watermark advances past it; nothing of it is folded.
  std::uint64_t hours_corrupt = 0;
  std::uint64_t profiles_evicted = 0;   ///< hot -> frozen moves
  std::uint64_t snapshots_published = 0;  ///< periodic + explicit
};

/// Follows a FlowTupleStore as hourly files rotate in, feeding an
/// AnalysisPipeline incrementally and publishing point-in-time reports.
///
/// Threading contract: one ingest thread owns poll_once()/follow()/
/// publish_snapshot()/finalize(); latest_snapshot() and watermark() may
/// be called concurrently from any thread. stats() is ingest-thread (or
/// after the ingest thread is done).
class StreamingStudy {
 public:
  /// The database and store must outlive the study.
  StreamingStudy(const inventory::IoTDeviceDatabase& db,
                 const telescope::FlowTupleStore& store,
                 PipelineOptions pipeline_options = {},
                 StreamOptions options = {});

  StreamingStudy(const StreamingStudy&) = delete;
  StreamingStudy& operator=(const StreamingStudy&) = delete;

  /// One rotation-watcher poll: admits every newly appeared hour at or
  /// above the watermark (ascending), drops newly appeared hours below
  /// it as late. Returns how many hours were admitted.
  std::size_t poll_once();

  /// Polls until a poll that found nothing coincides with should_stop()
  /// returning true. The predicate is only consulted when the store is
  /// drained, so a stop request never strands already-published hours.
  void follow(const std::function<bool()>& should_stop);

  /// Builds a point-in-time report over everything admitted so far and
  /// publishes it as the latest snapshot. Ingest-thread only.
  std::shared_ptr<const Report> publish_snapshot();

  /// Most recently published snapshot (null before the first one).
  /// Lock-free and safe from any thread — publication is an atomic
  /// shared_ptr store, so a server worker hammering this during
  /// follow() never blocks ingest (and never races it: the returned
  /// report is immutable). The pointer aliases the PublishedReport
  /// that owns it, so it stays valid for as long as the caller holds it.
  std::shared_ptr<const Report> latest_snapshot() const;

  /// The same snapshot together with its epoch stamp, as one consistent
  /// load (epoch and report travel in a single atomic pointer — a reader
  /// can never observe a new report under an old epoch). Null before the
  /// first publication. Lock-free, any thread.
  std::shared_ptr<const PublishedReport> latest_published() const;

  /// Epoch of the latest published snapshot (0 before the first one).
  /// Lock-free, any thread.
  std::uint64_t epoch() const noexcept;

  /// Finalizes the pipeline and publishes the result as the latest
  /// snapshot. Byte-identical to a batch run over the same hours. The
  /// study must not be polled afterwards.
  Report finalize();

  /// Next interval the stream will admit (one past the highest admitted;
  /// 0 before the first hour). Safe from any thread.
  int watermark() const noexcept {
    return watermark_.load(std::memory_order_acquire);
  }

  const StreamStats& stats() const noexcept { return stats_; }
  const AnalysisPipeline& pipeline() const noexcept { return pipeline_; }

 private:
  void admit(const net::FlowBatch& batch);
  /// Graph-mode after-hook: runs on a scheduler lane inside the hour's
  /// fan-in (fence-serialized — at most one instance at a time, hours in
  /// submission order, with every hour <= this one fully folded and no
  /// later observe task running), so the watermark publication, idle
  /// eviction, and periodic snapshot are exactly as safe here as on the
  /// ingest thread in admit().
  void hour_folded(const net::FlowBatch& batch, bool ok, bool snapshot_due);
  /// Records a quarantined hour: bumps hours_corrupt and the
  /// stream.corrupt_hours counter, logs the first occurrence. Called on
  /// the ingest thread (sync modes) or from the fence-serialized
  /// after-hook (graph mode) — never concurrently with itself.
  void note_corrupt_hour(int interval, const std::string& message);
  /// Whether the hour just counted into hours_admitted lands on the
  /// periodic snapshot cadence.
  bool snapshot_due_now() const;

  const telescope::FlowTupleStore* store_;
  StreamOptions options_;
  AnalysisPipeline pipeline_;
  telescope::RotationWatcher watcher_;
  StreamStats stats_;
  std::atomic<int> watermark_{0};
  /// One past the highest *submitted* interval — the ingest thread's own
  /// late-drop frontier. Equal to watermark() in the synchronous modes;
  /// under ShardScheduler::Graph it leads the watermark by the in-flight
  /// hours (submission happens at poll time, the watermark only moves
  /// when the hour's fan-in completes), and late-drop decisions must use
  /// this frontier: an hour below it is already in the task graph even
  /// if not yet folded.
  int admit_frontier_ = 0;
  bool warned_late_ = false;
  bool warned_corrupt_ = false;

  /// Publication slot. A plain shared_ptr store here raced the server's
  /// worker-thread readers (shared_ptr copy vs store is a data race on
  /// the control block pointer); the atomic specialization makes
  /// publish-and-read lock-free on both sides.
  std::atomic<std::shared_ptr<const PublishedReport>> latest_;

  // Observability handles, resolved once (registry lookups are mutexed).
  obs::Gauge& watermark_gauge_;  ///< stream.watermark (display only;
                                 ///< watermark() reads the atomic above)
  obs::Stage& snapshot_stage_;   ///< stream.snapshot — build+publish time
  obs::Stage& admit_stage_;      ///< stream.admit — per-hour observe time
  obs::Stage& decode_stage_;     ///< store.decode — same stage the batch
                                 ///< read path times, for comparability
  obs::Counter& hours_counter_;  ///< stream.hours
  obs::Counter& late_counter_;   ///< stream.late_hours
  obs::Counter& corrupt_counter_;  ///< stream.corrupt_hours
  obs::Counter& evicted_counter_;  ///< stream.evicted
};

}  // namespace iotscope::core
