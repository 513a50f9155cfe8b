// In-memory spans recorded by the benchmark's own clock around public
// calls into each layer (name, start, end, parent). Written as JSON when
// the traced run ends; self time is a span's duration minus the part its
// child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
  };

  /// Per-name aggregate: calls, total and self time.
  struct Layer {
    std::uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
    std::vector<double> durations_s;
  };

  int open(std::string name);
  void close(int id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::map<std::string, Layer> layers() const;

  /// Writes {"spans": [...]} to `path`.
  void write_json(const fs::path& path) const;

  /// Mean cost of one open/close pair on this host, in ns (measured on a
  /// scratch tracer, so it adds no spans here).
  static double span_cost_ns();

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
