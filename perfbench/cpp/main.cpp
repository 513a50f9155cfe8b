// perfbench: the end-to-end benchmark of iotscope's batch, follow, serve
// and compaction paths over one generated telescope week.
//
//   perfbench gen   --workload W --seed N --out DIR [--tiny]
//   perfbench run   --workload W --seed N --data DIR --work DIR
//                   --seconds S --trace 0|1 [--trace-out FILE] [--tiny]
//                   [--perturb]
//   perfbench setup --data DIR
//   perfbench rss   --workload W --seed N --data DIR --work DIR [--tiny]
//
// `run` prints a metrics table and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}; a failed check prints the
// reason on stderr, correct=false, and exits 1. perfbench/run.py builds
// this binary, caches the generated datasets and is the command to use.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "generate.hpp"
#include "measure.hpp"
#include "util/logging.hpp"

using namespace perfbench;

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + key);
    }
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "";
    }
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags,
                     const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end() || it->second.empty()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  iotscope::util::set_log_level(iotscope::util::LogLevel::Warn);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|run|setup|rss --flags (see main.cpp)\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const auto flags = parse_flags(argc, argv);
    if (command == "gen") {
      const auto spec = workload_spec(required(flags, "workload"),
                                      std::stoull(required(flags, "seed")),
                                      flags.count("tiny") != 0);
      generate_dataset(spec, required(flags, "out"));
      return 0;
    }
    if (command == "setup") {
      pin_to_cpus(kBenchCpus);
      return measure_setup(required(flags, "data"));
    }
    if (command == "rss") {
      const unsigned cpus = pin_to_cpus(kBenchCpus);
      const auto spec = workload_spec(required(flags, "workload"),
                                      std::stoull(required(flags, "seed")),
                                      flags.count("tiny") != 0);
      return measure_peak_rss(spec, required(flags, "data"),
                              required(flags, "work"), cpus);
    }
    if (command == "run") {
      RunConfig config;
      config.spec = workload_spec(required(flags, "workload"),
                                  std::stoull(required(flags, "seed")),
                                  flags.count("tiny") != 0);
      config.data = required(flags, "data");
      config.work = required(flags, "work");
      config.seconds = std::stod(required(flags, "seconds"));
      config.perturb = flags.count("perturb") != 0;
      config.self_exe = argv[0];
      if (flags.count("trace-out")) config.trace_out = flags.at("trace-out");
      config.threads = pin_to_cpus(kBenchCpus);
      std::printf("# pinned to %u of %u CPUs; multi-threaded passes use %u "
                  "pipeline threads\n",
                  config.threads, std::thread::hardware_concurrency(),
                  config.threads);
      return required(flags, "trace") == "1" ? run_traced(config)
                                             : run_measured(config);
    }
    std::fprintf(stderr, "perfbench: unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(), e.what());
    return 2;
  }
}
