#pragma once

#include "common.hpp"

namespace perfbench {

struct RunConfig {
  WorkloadSpec spec;
  fs::path data;       ///< generated dataset
  fs::path work;       ///< scratch directory of this run
  fs::path trace_out;  ///< traced run: where the spans are written
  std::string self_exe;  ///< this program, for the set-up children
  double seconds = 30;
  unsigned threads = 1;  ///< CPUs the run is pinned to; pipeline threads of
                         ///< the multi-threaded passes
  bool perturb = false;  ///< self-test: corrupt the batch report
};

/// Untraced run: prints every end-to-end metric but peak_rss_mb. setup_s
/// is the median of fresh set-up processes started between its phases.
int run_measured(const RunConfig& config);

/// Traced run: one layer call at a time, prints every per-layer metric.
int run_traced(const RunConfig& config);

/// One dataset load, as a fresh `iotscope analyze` process pays it before
/// its first record; prints "setup_s <value>".
int measure_setup(const fs::path& data);

/// The program's own work in a process of its own, without the
/// benchmark's tallies: load, then one batch pass, streaming replay, serve
/// round and compaction pass; prints "peak_rss_mb <value>" last.
int measure_peak_rss(const WorkloadSpec& spec, const fs::path& data,
                     const fs::path& work, unsigned threads);

}  // namespace perfbench
