#include "common.hpp"

#include <sched.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/characterize.hpp"
#include "core/malicious.hpp"
#include "core/report_text.hpp"
#include "net/block_codec.hpp"
#include "net/flowtuple.hpp"

namespace perfbench {

WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed,
                           bool tiny) {
  WorkloadSpec spec;
  spec.scenario.seed = seed;
  spec.scenario.inventory_scale = tiny ? 0.02 : 1.0;
  if (name == "paper") {
    // The paper's marginals over the full 331k-device inventory, at 5 %
    // of its traffic, stored raw.
    spec.scenario.traffic_scale = tiny ? 0.002 : 0.05;
    spec.compressed = false;
    spec.zipf_keys = true;
    spec.queries = tiny ? 400 : 24000;
  } else if (name == "skewed") {
    // One non-inventory source emits 80 % of every hour. The base traffic
    // is a fifth of `paper`'s, so the week holds about as many records.
    spec.scenario.traffic_scale = tiny ? 0.0004 : 0.01;
    spec.scenario.heavy_hitter_share = 0.8;
    spec.compressed = true;
    spec.zipf_keys = false;
    spec.queries = tiny ? 400 : 24000;
    // Its passes are short, so it takes more rounds in the same time and
    // two batch passes per thread count in each.
    spec.round_seconds = 6;
    spec.batch_passes = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected paper or skewed)");
  }
  if (tiny) spec.malware_reports = 60;
  return spec;
}

SynthFacts read_synth_facts(const fs::path& dir) {
  SynthFacts facts;
  std::ifstream in(dir / "synth_facts.txt");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) facts[key] = value;
  return facts;
}

Dataset load_dataset(const fs::path& dir) {
  namespace intel = iotscope::intel;
  Dataset data{
      iotscope::inventory::IoTDeviceDatabase::load_csv(dir / "inventory.csv"),
      iotscope::telescope::FlowTupleStore(dir / "flowtuples"),
      intel::ThreatRepository::load_csv(dir / "threats.csv"),
      intel::MalwareDatabase::import_xml(dir / "malware"),
      intel::FamilyResolver::load_csv(dir / "verdicts.csv")};
  return data;
}

std::string render_all(const Report& report, const Dataset& data) {
  namespace core = iotscope::core;
  const auto character = core::characterize(report, data.inventory);
  core::MaliciousnessOptions options;
  // The explored-set quota `iotscope analyze` uses.
  options.top_per_realm = static_cast<std::size_t>(
      static_cast<double>(report.discovered_total()) * 0.15);
  const auto malicious = core::analyze_maliciousness(
      report, data.inventory, data.threats, data.malware, data.resolver,
      options);
  return core::render_inference_report(report, character, data.inventory) +
         core::render_traffic_report(report, data.inventory) +
         core::render_maliciousness_report(malicious);
}

fs::path hour_file(const fs::path& store_dir, int interval) {
  auto path = store_dir / iotscope::net::CompressedFlowCodec::file_name(interval);
  if (fs::exists(path)) return path;
  path = store_dir / iotscope::net::FlowTupleCodec::file_name(interval);
  if (fs::exists(path)) return path;
  return {};
}

unsigned pin_to_cpus(unsigned max) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  unsigned picked = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && picked < max; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++picked;
    }
  }
  if (::sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    return static_cast<unsigned>(CPU_COUNT(&allowed));
  }
  return picked;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- reference

ReferenceTally::ReferenceTally(
    const iotscope::inventory::IoTDeviceDatabase& db) {
  inventory_.reserve(db.size());
  for (std::uint32_t i = 0; i < db.devices().size(); ++i) {
    inventory_.emplace(db.devices()[i].ip.value(), i);
  }
  seen_.assign(db.size(), false);
  device_packets_.assign(db.size(), 0);
}

void ReferenceTally::add(const iotscope::net::FlowBatch& batch) {
  std::uint64_t hour = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t packets = batch.pkt_count[i];
    hour += packets;
    const auto it = inventory_.find(batch.src[i].value());
    if (it != inventory_.end()) {
      attributed_ += packets;
      ++attributed_records_;
      seen_[it->second] = true;
      device_packets_[it->second] += packets;
    } else {
      unattributed_ += packets;
    }
  }
  records_ += batch.size();
  hour_packets_[batch.interval] += hour;
}

std::size_t ReferenceTally::distinct_devices() const {
  return static_cast<std::size_t>(std::count(seen_.begin(), seen_.end(), true));
}

void ReferenceTally::check_report(const Report& report,
                                  const SynthFacts& facts,
                                  const std::string& what) const {
  auto expect = [&](std::uint64_t got, std::uint64_t want, const char* field) {
    check(got == want, what + ": " + field + " is " + std::to_string(got) +
                           ", reference tally says " + std::to_string(want));
  };
  expect(report.total_packets, attributed_, "total_packets");
  expect(report.unattributed_packets, unattributed_, "unattributed_packets");
  expect(report.discovered_total(), distinct_devices(), "discovered_total()");
  expect(report.devices.size(), distinct_devices(), "devices.size()");
  if (!facts.empty()) {
    // The generator's own emission counters: every emitted packet lands
    // in the telescope, and only non-inventory sources go unattributed.
    expect(attributed_ + unattributed_, facts.at("total"),
           "tallied packets vs generator total");
    expect(unattributed_,
           facts.at("noise") + facts.at("unindexed") + facts.at("heavy_hitter"),
           "unattributed tally vs generator noise+unindexed+heavy_hitter");
  }
}

// ------------------------------------------------------------- JSON

namespace {

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool run() {
    skip_ws();
    if (!value(0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::string_view w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }
  bool number() {
    if (s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }
  bool string() {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (pos_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[pos_++]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
        return false;
      }
    }
    return false;
  }
  bool value(int depth) {
    if (depth > 64 || pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == close) {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        if (c == '{') {
          if (pos_ >= s_.size() || s_[pos_] != '"' || !string()) return false;
          skip_ws();
          if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
          skip_ws();
        }
        if (!value(depth + 1)) return false;
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] != close) return false;
        ++pos_;
        return true;
      }
    }
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json_valid(const std::string& text) { return JsonValidator(text).run(); }

std::optional<std::uint64_t> json_uint_field(const std::string& text,
                                             const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto at = text.find(needle);
  if (at == std::string::npos) return std::nullopt;
  at += needle.size();
  while (at < text.size() && text[at] == ' ') ++at;
  std::uint64_t value = 0;
  std::size_t digits = 0;
  while (at < text.size() && std::isdigit(static_cast<unsigned char>(text[at]))) {
    value = value * 10 + static_cast<std::uint64_t>(text[at++] - '0');
    ++digits;
  }
  if (digits == 0) return std::nullopt;
  return value;
}

}  // namespace perfbench
