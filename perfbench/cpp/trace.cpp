#include "trace.hpp"

#include <fstream>

#include "util/json.hpp"

namespace perfbench {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
}  // namespace

int Tracer::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Layer& layer = out[span.name];
    const double total = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    ++layer.calls;
    layer.total_s += total;
    layer.self_s += total - static_cast<double>(child_ns[i]) * 1e-9;
    layer.durations_s.push_back(total);
  }
  return out;
}

void Tracer::write_json(const fs::path& path) const {
  std::string out = "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out += "  {\"id\": " + std::to_string(i) + ", \"name\": \"";
    iotscope::util::append_json_escaped(out, span.name);
    out += "\", \"start_ns\": " + std::to_string(span.start_ns) +
           ", \"end_ns\": " + std::to_string(span.end_ns) +
           ", \"parent\": " + std::to_string(span.parent) + "}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  fs::create_directories(path.parent_path());
  std::ofstream(path) << out;
}

double Tracer::span_cost_ns() {
  constexpr int kSpans = 20000;
  Tracer scratch;
  scratch.spans_.reserve(kSpans);
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    SpanScope span(&scratch, "x");
  }
  return seconds_since(start) * 1e9 / kSpans;
}

}  // namespace perfbench
