#include "telescope/store.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>

#include "util/io.hpp"
#include "util/mmap.hpp"

namespace iotscope::telescope {

namespace {

/// Atomic hourly-file publication: the bytes land in a dot-prefixed temp
/// file in the same directory (same filesystem, so rename() cannot fall
/// back to copy), then rename into the final name. A concurrent reader —
/// the streaming study polling the directory — therefore either sees no
/// file or the complete hour, never a torn prefix mid-write. The temp
/// name is excluded from intervals() by the strict flowtuple-NNNN
/// pattern match, and a per-process counter keeps concurrent writers of
/// the same hour from colliding on it.
void publish_atomically(const std::filesystem::path& dir,
                        const std::string& file_name,
                        const std::string& blob) {
  static std::atomic<std::uint64_t> sequence{0};
  const auto tmp =
      dir / ("." + file_name + ".tmp" +
             std::to_string(sequence.fetch_add(1, std::memory_order_relaxed)));
  util::write_file(tmp, blob);
  std::filesystem::rename(tmp, dir / file_name);
}

/// Parses "flowtuple-NNNN.ift" / "flowtuple-NNNN.iftc" (exactly four
/// decimal digits); nullopt for anything else — stray files and the
/// dot-prefixed temp names are not ours.
std::optional<int> parse_hour_file(const std::string& name) {
  const bool raw = name.size() == 18 && name.compare(14, 4, ".ift") == 0;
  const bool compressed =
      name.size() == 19 && name.compare(14, 5, ".iftc") == 0;
  if ((!raw && !compressed) || name.rfind("flowtuple-", 0) != 0) {
    return std::nullopt;
  }
  int interval = 0;
  for (std::size_t i = 10; i < 14; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    interval = interval * 10 + (c - '0');
  }
  return interval;
}

/// Lazily-registered handles for the compressed-read-path metrics
/// (DESIGN.md §9: look handles up once, record at hour granularity).
struct StoreMetrics {
  obs::Counter& blocks_decoded;
  obs::Counter& blocks_skipped;
  obs::Counter& bytes_compressed;
  obs::Counter& bytes_raw;
  obs::Gauge& ratio_permille;

  static StoreMetrics& instance() {
    static StoreMetrics m{
        obs::Registry::instance().counter("store.blocks.decoded"),
        obs::Registry::instance().counter("store.blocks.skipped"),
        obs::Registry::instance().counter("store.bytes.compressed"),
        obs::Registry::instance().counter("store.bytes.raw"),
        obs::Registry::instance().gauge("store.compression.ratio_permille")};
    return m;
  }

  void record(const net::BlockScanStats& s) {
    blocks_decoded.add(s.blocks_decoded);
    blocks_skipped.add(s.blocks_skipped);
    bytes_compressed.add(s.bytes_compressed);
    bytes_raw.add(s.bytes_raw);
    // Cumulative raw:compressed ratio of everything decoded so far, in
    // permille (3120 = 3.12x). A gauge because it is a derived level,
    // not a monotone count.
    const std::uint64_t compressed = bytes_compressed.value();
    if (compressed > 0) {
      ratio_permille.set(
          static_cast<std::int64_t>(bytes_raw.value() * 1000 / compressed));
    }
  }
};

}  // namespace

FlowTupleStore::FlowTupleStore(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

void FlowTupleStore::put(const net::HourlyFlows& flows) const {
  put(net::FlowBatch::from_rows(flows));
}

void FlowTupleStore::put(const net::FlowBatch& batch) const {
  std::string blob;
  if (write_format_ == StoreFormat::Compressed) {
    net::CompressedFlowCodec::encode(blob, batch, block_records_);
    publish_atomically(
        dir_, net::CompressedFlowCodec::file_name(batch.interval), blob);
  } else {
    net::FlowTupleCodec::encode(blob, batch);
    publish_atomically(dir_, net::FlowTupleCodec::file_name(batch.interval),
                       blob);
  }
}

void FlowTupleStore::put_hostile(int interval, std::string_view bytes,
                                 StoreFormat format) const {
  const std::string name = format == StoreFormat::Compressed
                               ? net::CompressedFlowCodec::file_name(interval)
                               : net::FlowTupleCodec::file_name(interval);
  publish_atomically(dir_, name, std::string(bytes));
}

std::optional<net::HourlyFlows> FlowTupleStore::get(int interval) const {
  auto batch = load_batch(interval, nullptr);
  if (!batch) return std::nullopt;
  return batch->to_rows();
}

std::optional<net::FlowBatch> FlowTupleStore::get_batch(int interval) const {
  return load_batch(interval, nullptr);
}

std::optional<net::FlowBatch> FlowTupleStore::load_batch(
    int interval, const net::BlockPredicate* predicate) const {
  const auto compressed_path =
      dir_ / net::CompressedFlowCodec::file_name(interval);
  if (std::filesystem::exists(compressed_path)) {
    util::MmapFile map(compressed_path);
    net::BlockScanStats stats;
    if (predicate != nullptr && !predicate->may_match_hour(interval)) {
      // Whole hour outside the window: only the 30-byte file header is
      // ever faulted in; every block counts as skipped.
      stats.blocks_skipped =
          net::CompressedFlowCodec::peek_block_count(map.view());
      StoreMetrics::instance().record(stats);
      return std::nullopt;
    }
    net::FlowBatch batch;
    if (predicate != nullptr) {
      // Pushdown may skip blocks; MADV_SEQUENTIAL readahead would fault
      // their pages in anyway, so only the full decode advises.
      batch = net::CompressedFlowCodec::decode_filtered(map.view(),
                                                        *predicate, &stats);
    } else {
      map.advise_sequential();
      batch = net::CompressedFlowCodec::decode(map.view(), &stats);
    }
    StoreMetrics::instance().record(stats);
    return batch;
  }

  const auto raw_path = dir_ / net::FlowTupleCodec::file_name(interval);
  if (!std::filesystem::exists(raw_path)) return std::nullopt;
  if (predicate != nullptr && !predicate->may_match_hour(interval)) {
    return std::nullopt;
  }
  net::FlowBatch batch = net::FlowTupleCodec::read_columns(raw_path);
  if (predicate == nullptr) return batch;
  net::FlowBatch filtered;
  net::filter_batch(batch, *predicate, filtered);
  return filtered;
}

std::vector<FlowTupleStore::HourPartLoader> FlowTupleStore::hour_loaders(
    int interval, std::size_t max_parts,
    const std::optional<net::BlockPredicate>& predicate) const {
  std::vector<HourPartLoader> loaders;
  if (max_parts == 0) max_parts = 1;

  const auto compressed_path =
      dir_ / net::CompressedFlowCodec::file_name(interval);
  if (std::filesystem::exists(compressed_path)) {
    if (predicate && !predicate->may_match_hour(interval)) {
      // Whole hour outside the window: account the skip now (only the
      // 30-byte file header is faulted in), return no work.
      util::MmapFile map(compressed_path);
      net::BlockScanStats stats;
      stats.blocks_skipped =
          net::CompressedFlowCodec::peek_block_count(map.view());
      StoreMetrics::instance().record(stats);
      return loaders;
    }
    std::uint32_t block_count;
    {
      util::MmapFile map(compressed_path);
      block_count = net::CompressedFlowCodec::peek_block_count(map.view());
    }
    const std::uint32_t parts = static_cast<std::uint32_t>(std::min<std::size_t>(
        max_parts, std::max<std::uint32_t>(block_count, 1)));
    auto& decode_stage = obs::Registry::instance().stage("store.decode");
    for (std::uint32_t p = 0; p < parts; ++p) {
      // Even split of the block index space; part p owns
      // [p*count/parts, (p+1)*count/parts).
      const std::uint32_t begin = block_count * p / parts;
      const std::uint32_t end = block_count * (p + 1) / parts;
      loaders.push_back([compressed_path, begin, end, predicate,
                         &decode_stage]() {
        obs::ScopedTimer timer(decode_stage);
        util::MmapFile map(compressed_path);
        net::BlockScanStats stats;
        net::FlowBatch batch = net::CompressedFlowCodec::decode_blocks(
            map.view(), begin, end, predicate ? &*predicate : nullptr,
            &stats);
        StoreMetrics::instance().record(stats);
        return batch;
      });
    }
    return loaders;
  }

  const auto raw_path = dir_ / net::FlowTupleCodec::file_name(interval);
  if (!std::filesystem::exists(raw_path)) return loaders;
  if (predicate && !predicate->may_match_hour(interval)) return loaders;
  // Raw hours decode in one piece: the fixed-stride records are read
  // through a small buffer straight into the sized columns in one pass,
  // so a split would save little next to the reassembly copy.
  auto& decode_stage = obs::Registry::instance().stage("store.decode");
  loaders.push_back([raw_path, predicate, &decode_stage]() {
    obs::ScopedTimer timer(decode_stage);
    net::FlowBatch batch = net::FlowTupleCodec::read_columns(raw_path);
    if (!predicate) return batch;
    net::FlowBatch filtered;
    net::filter_batch(batch, *predicate, filtered);
    return filtered;
  });
  return loaders;
}

std::vector<int> FlowTupleStore::intervals() const {
  std::vector<int> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (const auto interval = parse_hour_file(entry.path().filename().string())) {
      out.push_back(*interval);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

CompactStats FlowTupleStore::compact(const CompactOptions& options) const {
  CompactStats stats;
  for (const int interval : intervals()) {
    const auto raw_path = dir_ / net::FlowTupleCodec::file_name(interval);
    if (!std::filesystem::exists(raw_path)) continue;  // already compressed
    const net::FlowBatch batch = net::FlowTupleCodec::read_columns(raw_path);
    const std::uint64_t raw_bytes = std::filesystem::file_size(raw_path);
    std::string blob;
    net::CompressedFlowCodec::encode(blob, batch, options.block_records);
    if (options.verify) {
      const net::FlowBatch round = net::CompressedFlowCodec::decode(blob);
      if (round.interval != batch.interval ||
          round.start_time != batch.start_time ||
          !round.same_records(batch)) {
        throw util::IoError("compact: round-trip verification failed for "
                            "interval " +
                            std::to_string(interval));
      }
    }
    publish_atomically(dir_, net::CompressedFlowCodec::file_name(interval),
                       blob);
    if (!options.keep_uncompressed) std::filesystem::remove(raw_path);
    ++stats.hours;
    stats.records += batch.size();
    stats.bytes_raw += raw_bytes;
    stats.bytes_compressed += blob.size();
  }
  return stats;
}

void FlowTupleStore::scan(
    const std::function<void(const net::FlowBatch&)>& visit,
    const ScanOptions& options) const {
  const net::BlockPredicate* predicate =
      options.predicate ? &*options.predicate : nullptr;
  if (options.readers <= 1) {
    if (predicate == nullptr) {
      for_each(visit, options.prefetch);
      return;
    }
    auto& decode_stage = obs::Registry::instance().stage("store.decode");
    for (const int interval : intervals()) {
      std::optional<net::FlowBatch> batch;
      {
        obs::ScopedTimer timer(decode_stage);
        batch = load_batch(interval, predicate);
      }
      if (batch) visit(static_cast<const net::FlowBatch&>(*batch));
    }
    return;
  }

  // Parallel in-order scan: `readers` threads claim hours from an atomic
  // cursor, decode concurrently, and deposit results into an ordered
  // ready-map the calling thread drains in strict interval order. A
  // bounded deposit window (readers + prefetch) caps resident batches;
  // the worker holding the next-to-emit hour always fits inside it, so
  // the window cannot deadlock. Errors on either side flip `abort`,
  // every thread drains its gauge accounting, and the first error is
  // rethrown here after all readers join — the same contract as
  // for_each's prefetch path (DESIGN.md §8).
  const auto order = intervals();
  const std::size_t window =
      options.readers + std::max<std::size_t>(options.prefetch, 1);
  auto& decode_stage = obs::Registry::instance().stage("store.decode");
  auto& mem_gauge = obs::Registry::instance().gauge("pipeline.batch.mem_peak");

  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::size_t, std::optional<net::FlowBatch>> ready;
  std::size_t next_emit = 0;
  bool abort = false;
  std::exception_ptr error;
  std::atomic<std::size_t> next_claim{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t idx =
          next_claim.fetch_add(1, std::memory_order_relaxed);
      if (idx >= order.size()) return;
      std::optional<net::FlowBatch> batch;
      try {
        obs::ScopedTimer timer(decode_stage);
        batch = load_batch(order[idx], predicate);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        abort = true;
        cv.notify_all();
        return;
      }
      std::int64_t bytes = 0;
      if (batch) {
        bytes = static_cast<std::int64_t>(batch->resident_bytes());
        mem_gauge.add(bytes);
      }
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return abort || idx < next_emit + window; });
      if (abort) {
        if (bytes != 0) mem_gauge.add(-bytes);
        return;
      }
      ready.emplace(idx, std::move(batch));
      cv.notify_all();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(options.readers);
  for (std::size_t i = 0; i < options.readers; ++i) {
    threads.emplace_back(worker);
  }

  struct GaugeRelease {
    obs::Gauge& gauge;
    std::int64_t bytes;
    ~GaugeRelease() { gauge.add(-bytes); }
  };
  const auto shut_down = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      abort = true;
    }
    cv.notify_all();
    for (auto& t : threads) t.join();
    for (auto& [idx, batch] : ready) {
      if (batch) {
        mem_gauge.add(-static_cast<std::int64_t>(batch->resident_bytes()));
      }
    }
    ready.clear();
  };

  try {
    while (next_emit < order.size()) {
      std::optional<net::FlowBatch> batch;
      bool aborted = false;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock,
                [&] { return abort || ready.count(next_emit) != 0; });
        if (abort) {
          aborted = true;
        } else {
          auto it = ready.find(next_emit);
          batch = std::move(it->second);
          ready.erase(it);
          ++next_emit;
          cv.notify_all();  // a depositor may be waiting on the window
        }
      }
      if (aborted) break;
      if (batch) {
        GaugeRelease release{
            mem_gauge, static_cast<std::int64_t>(batch->resident_bytes())};
        visit(static_cast<const net::FlowBatch&>(*batch));
      }
    }
  } catch (...) {
    shut_down();
    throw;
  }
  shut_down();
  if (error) std::rethrow_exception(error);
}

void FlowTupleStore::for_each(
    const std::function<void(const net::FlowBatch&)>& visit,
    std::size_t prefetch) const {
  for_each<const std::function<void(const net::FlowBatch&)>&>(visit, prefetch);
}

std::vector<int> RotationWatcher::poll() {
  std::vector<int> fresh;
  for (const int interval : store_->intervals()) {
    if (seen_.insert(interval).second) fresh.push_back(interval);
  }
  return fresh;  // intervals() is sorted, so fresh is too
}

void MemoryFlowStore::put(net::HourlyFlows flows) {
  hours_.push_back(std::move(flows));
  std::sort(hours_.begin(), hours_.end(),
            [](const net::HourlyFlows& a, const net::HourlyFlows& b) {
              return a.interval < b.interval;
            });
}

void MemoryFlowStore::for_each(
    const std::function<void(const net::HourlyFlows&)>& visit) const {
  for (const auto& h : hours_) visit(h);
}

std::uint64_t MemoryFlowStore::total_packets() const noexcept {
  std::uint64_t total = 0;
  for (const auto& h : hours_) total += h.total_packets();
  return total;
}

}  // namespace iotscope::telescope
