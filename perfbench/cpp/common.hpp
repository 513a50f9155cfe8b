// Shared pieces of the end-to-end benchmark: workload definitions, the
// dataset loader (the same loaders `iotscope analyze` uses), timing and
// statistics helpers, and the failure type every correctness check throws.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/report.hpp"
#include "intel/malware.hpp"
#include "intel/threat.hpp"
#include "inventory/database.hpp"
#include "telescope/store.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using iotscope::core::Report;

/// A correctness check failed: the run prints correct=false and exits 1.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailed with `what` unless `ok`.
inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

// ------------------------------------------------------------- workloads

/// How a workload's inputs are generated and queried. Every field is
/// fixed per workload; only the seed (the week's traffic and the query
/// sequence) varies between runs.
struct WorkloadSpec {
  iotscope::workload::ScenarioConfig scenario;
  bool compressed = false;      ///< store hours as .iftc (else raw .ift)
  bool zipf_keys = true;        ///< Zipf(s=1) over mixed targets, else
                                ///< uniform over every device timeline
  std::size_t queries = 0;      ///< socket queries per serve round
  /// Nominal length of one measured round: `--seconds` buys
  /// max(3, round(seconds / this)) rounds. A constant per workload, so the
  /// round count (and the failed share) never depends on the host's speed.
  double round_seconds = 10;
  std::size_t batch_passes = 1;  ///< batch passes per thread count per round
  std::size_t malware_reports = 300;
};

/// Hours of the compaction subset: every 12th hour (12 of 143).
inline bool in_compaction_subset(int interval) { return interval % 12 == 0; }

/// Snapshot cadence of the streaming replay, in admitted hours.
inline constexpr int kSnapshotEvery = 6;

/// Fresh-connection /healthz probes per serve round, each with this limit.
inline constexpr std::size_t kProbes = 4;
inline constexpr double kProbeLimitMs = 100.0;

/// `tiny` selects the smoke scale (seconds per run, every phase).
WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed,
                           bool tiny);

// ------------------------------------------------------------- dataset

/// Everything `iotscope analyze` loads before its first record.
struct Dataset {
  iotscope::inventory::IoTDeviceDatabase inventory;
  iotscope::telescope::FlowTupleStore store;
  iotscope::intel::ThreatRepository threats;
  iotscope::intel::MalwareDatabase malware;
  iotscope::intel::FamilyResolver resolver;
};

/// Generator ground truth written beside the dataset (key -> value).
using SynthFacts = std::map<std::string, std::uint64_t>;
SynthFacts read_synth_facts(const fs::path& dir);

/// Loads the dataset exactly as the CLI does.
Dataset load_dataset(const fs::path& dir);

/// The rendered operator output of one analysis: inference, traffic and
/// maliciousness reports, concatenated. Byte identity is checked on this.
std::string render_all(const Report& report, const Dataset& data);

/// The on-disk file of one stored hour (raw or compressed), or empty.
fs::path hour_file(const fs::path& store_dir, int interval);

// ------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile by linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Measured runs use at most this many CPUs.
inline constexpr unsigned kBenchCpus = 2;

/// Narrows the calling thread's CPU affinity to the first `max` CPUs it
/// may use (threads it starts later inherit the set) and returns how many
/// CPUs the set holds. On a shared VM, a process that keeps every vCPU
/// busy pays hypervisor steal that tracks the neighbours' load; on half
/// of the vCPUs it pays far less, so runs agree with each other.
unsigned pin_to_cpus(unsigned max);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

// ------------------------------------------------------------- reference

/// The benchmark's own tallies over decoded records, made apart from the
/// pipeline with plain std containers and the inventory's device list.
class ReferenceTally {
 public:
  explicit ReferenceTally(const iotscope::inventory::IoTDeviceDatabase& db);

  /// Adds one decoded hour.
  void add(const iotscope::net::FlowBatch& batch);

  std::uint64_t attributed() const noexcept { return attributed_; }
  std::uint64_t records() const noexcept { return records_; }
  /// Records whose source is an inventory device.
  std::uint64_t attributed_records() const noexcept {
    return attributed_records_;
  }
  std::size_t distinct_devices() const;
  /// Packets sent by one inventory device (by index), over every hour.
  std::uint64_t device_packets(std::uint32_t index) const {
    return device_packets_[index];
  }
  /// Packets (attributed + unattributed) of every hour, by interval.
  const std::map<int, std::uint64_t>& hour_packets() const noexcept {
    return hour_packets_;
  }

  /// Throws CheckFailed unless the report's totals and discovered count
  /// equal the tallies (and the generator facts where they apply).
  void check_report(const Report& report, const SynthFacts& facts,
                    const std::string& what) const;

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> inventory_;  ///< ip -> index
  std::vector<bool> seen_;  ///< by inventory index
  std::vector<std::uint64_t> device_packets_;  ///< by inventory index
  std::uint64_t attributed_ = 0;
  std::uint64_t unattributed_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t attributed_records_ = 0;
  std::map<int, std::uint64_t> hour_packets_;
};

/// Validates one JSON document (RFC 8259 grammar, no extensions).
bool json_valid(const std::string& text);

/// The unsigned integer value of `"key": N` in a flat JSON object.
std::optional<std::uint64_t> json_uint_field(const std::string& text,
                                             const std::string& key);

}  // namespace perfbench
